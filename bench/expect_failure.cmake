# Runs BINARY with the environment assignment ENV and passes when it
# exits with status 1 and its stderr matches MESSAGE (a regex).
#   cmake -DBINARY=... -DENV=NAME=value -DMESSAGE=... -P expect_failure.cmake
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ${ENV} ${BINARY}
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "${BINARY} with ${ENV}: exit ${code}, expected 1\n${err}")
endif()
if(NOT err MATCHES "${MESSAGE}")
  message(FATAL_ERROR "${BINARY} with ${ENV}: stderr does not match "
                      "'${MESSAGE}':\n${err}")
endif()
