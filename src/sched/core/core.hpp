// Umbrella header for sched::core — the policy layer of the scheduling
// stack (docs/SCHEDULING.md). The primitives every shipped algorithm is
// built on:
//
//   RunQueue    fixed-capacity FIFO ring (rotation, first-fit scans)
//   RunSet      schedule-in-ordered membership with extract_if and
//               O(1) contains
//   GangSet     VM sibling groups copied from the SystemTopology
//   IdlePcpus   idle-PCPU cursor incl. PCPUs freed during the tick
//
// All primitives size their state in Scheduler::on_attach and are
// allocation-free per tick. The topology and validator types are defined
// in the vm layer (the bridge needs them below sched in the link order)
// and aliased here under sched:: for policy code.
#pragma once

#include "sched/core/gang_set.hpp"
#include "sched/core/idle_pcpus.hpp"
#include "sched/core/run_queue.hpp"
#include "sched/core/run_set.hpp"
#include "vm/contract_validator.hpp"
#include "vm/topology.hpp"

namespace vcpusim::sched {

using SystemTopology = vm::SystemTopology;
using ContractValidator = vm::ContractValidator;
using ScheduleViolation = vm::ScheduleViolation;

}  // namespace vcpusim::sched
