// Footprint-sanitizer tests: each seeded footprint lie (under-declared
// read, undeclared write, predicate write, missed touch(), a write
// outside the reported effect variant, an out-of-range variant report,
// stale declared write, broken conservation law) is caught, a truthful model
// reports clean, and a sanitized run walks the identical trajectory.
#include "san/sanitizer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "san/model.hpp"
#include "san/simulator.hpp"
#include "san/token_view.hpp"
#include "stats/distribution.hpp"

namespace vcpusim::san {
namespace {

bool has_kind(const FootprintReport& report, ViolationKind kind) {
  for (const auto& v : report.violations) {
    if (v.kind == kind) return true;
  }
  return false;
}

SimulatorConfig sanitizing_config(Time end) {
  SimulatorConfig config;
  config.end_time = end;
  config.verify_footprints = true;
  return config;
}

/// Run `model` once under the sanitizer and keep the simulator alive so
/// the report stays readable.
struct SanitizedRun {
  Simulator sim;
  explicit SanitizedRun(ComposedModel& model, Time end = 6.0)
      : sim(sanitizing_config(end)) {
    sim.set_model(model);
    sim.run();
  }
  const FootprintReport& report() {
    const FootprintReport* r = sim.footprint_report();
    EXPECT_NE(r, nullptr);
    return *r;
  }
};

/// Truthful two-place ring fixture; the mutation tests then rebuild it
/// with one specific lie.
struct Ring {
  ComposedModel model{"Ring"};
  SanModel* s = nullptr;
  std::shared_ptr<TokenPlace> a;
  std::shared_ptr<TokenPlace> b;

  Ring() {
    s = &model.add_submodel("S");
    a = s->add_place<std::int64_t>("A", 1);
    b = s->add_place<std::int64_t>("B", 0);
  }

  Activity& transfer(const std::string& name,
                     const std::shared_ptr<TokenPlace>& from,
                     const std::shared_ptr<TokenPlace>& to) {
    auto& act = s->add_timed_activity(name, stats::make_deterministic(1.0));
    act.add_input_gate(InputGate{name + "_in",
                                 [from]() { return from->get() > 0; },
                                 nullptr, access({from})});
    act.add_output_gate(OutputGate{
        name + "_out",
        [from, to](GateContext&) {
          from->mut() -= 1;
          to->mut() += 1;
        },
        with_effects(access({}, {from, to}),
                     {{"move", {{from, "", -1}, {to, "", +1}}}})});
    return act;
  }
};

TEST(FootprintSanitizer, TruthfulModelReportsClean) {
  Ring ring;
  ring.transfer("Fwd", ring.a, ring.b);
  ring.transfer("Back", ring.b, ring.a);

  SanitizedRun run(ring.model);
  const auto& report = run.report();
  EXPECT_TRUE(report.clean()) << report.render_text();
  EXPECT_TRUE(report.violations.empty()) << report.render_text();

  // The proven conservation law is available through the simulator.
  const analyze::InvariantAnalysis* analysis = run.sim.invariant_analysis();
  ASSERT_NE(analysis, nullptr);
  EXPECT_FALSE(analysis->invariants.empty());
}

TEST(FootprintSanitizer, SanitizerOffReturnsNoReport) {
  Ring ring;
  ring.transfer("Fwd", ring.a, ring.b);
  ring.transfer("Back", ring.b, ring.a);
  SimulatorConfig config;
  config.end_time = 6.0;
  Simulator sim(config);
  sim.set_model(ring.model);
  sim.run();
  EXPECT_EQ(sim.footprint_report(), nullptr);
  EXPECT_EQ(sim.invariant_analysis(), nullptr);
}

TEST(FootprintSanitizer, SanitizedRunIsTrajectoryIdentical) {
  Ring plain_ring;
  plain_ring.transfer("Fwd", plain_ring.a, plain_ring.b);
  plain_ring.transfer("Back", plain_ring.b, plain_ring.a);
  SimulatorConfig config;
  config.end_time = 50.0;
  Simulator off(config);
  off.set_model(plain_ring.model);
  const RunStats stats_off = off.run();
  const std::int64_t a_off = plain_ring.a->get();

  Ring checked_ring;
  checked_ring.transfer("Fwd", checked_ring.a, checked_ring.b);
  checked_ring.transfer("Back", checked_ring.b, checked_ring.a);
  config.verify_footprints = true;
  Simulator on(config);
  on.set_model(checked_ring.model);
  const RunStats stats_on = on.run();

  EXPECT_EQ(stats_on.events, stats_off.events);
  EXPECT_EQ(checked_ring.a->get(), a_off);
}

TEST(FootprintSanitizer, UnderDeclaredReadDetected) {
  Ring ring;
  ring.transfer("Back", ring.b, ring.a);
  auto a = ring.a;
  auto b = ring.b;
  auto& act = ring.s->add_timed_activity("Fwd", stats::make_deterministic(1.0));
  act.add_input_gate(InputGate{"Fwd_in", [a]() { return a->get() > 0; },
                               nullptr, access({a})});
  // The gate consults B but declares only A: the classic footprint lie
  // incremental enabling would silently mis-schedule on.
  act.add_output_gate(OutputGate{
      "Fwd_out",
      [a, b](GateContext&) {
        if (b->get() >= 0) a->mut() -= 1;
        b->mut() += 1;
      },
      with_effects(access({}, {a, b}),
                   {{"move", {{a, "", -1}, {b, "", +1}}}})});
  // Keep the read out of the declared set: reads stays empty, writes {a,b}
  // covers the writes, so only the undeclared *read* of B... (B is in
  // writes, which licenses reads). Drop B from writes instead:
  act.cases_mut().front().output_gates.front().footprint =
      with_effects(access({}, {a}), {{"move", {{a, "", -1}}}});

  SanitizedRun run(ring.model);
  const auto& report = run.report();
  EXPECT_FALSE(report.clean()) << report.render_text();
  EXPECT_TRUE(has_kind(report, ViolationKind::kUndeclaredRead))
      << report.render_text();
  EXPECT_TRUE(has_kind(report, ViolationKind::kUndeclaredWrite))
      << report.render_text();
}

TEST(FootprintSanitizer, UndeclaredWriteDetected) {
  Ring ring;
  ring.transfer("Fwd", ring.a, ring.b);
  ring.transfer("Back", ring.b, ring.a);
  auto counter = ring.s->add_place<std::int64_t>("Counter", 0);
  auto a = ring.a;
  auto& act =
      ring.s->add_timed_activity("Sneaky", stats::make_deterministic(1.0));
  act.add_input_gate(InputGate{"Sneaky_in", [a]() { return a->get() >= 0; },
                               nullptr, access({a})});
  // Writes Counter without declaring it.
  act.add_output_gate(OutputGate{
      "Sneaky_out", [counter](GateContext&) { counter->mut() += 1; },
      access({}, {})});

  SanitizedRun run(ring.model);
  const auto& report = run.report();
  EXPECT_TRUE(has_kind(report, ViolationKind::kUndeclaredWrite))
      << report.render_text();
  EXPECT_GT(report.errors(), 0u);
}

TEST(FootprintSanitizer, PredicateWriteDetected) {
  Ring ring;
  ring.transfer("Back", ring.b, ring.a);
  auto a = ring.a;
  auto b = ring.b;
  auto& act = ring.s->add_timed_activity("Fwd", stats::make_deterministic(1.0));
  // The predicate mutates the marking: forbidden regardless of footprint.
  act.add_input_gate(InputGate{"Fwd_in",
                               [a]() {
                                 a->set(a->get());
                                 return a->get() > 0;
                               },
                               nullptr, access({a})});
  act.add_output_gate(OutputGate{
      "Fwd_out",
      [a, b](GateContext&) {
        a->mut() -= 1;
        b->mut() += 1;
      },
      with_effects(access({}, {a, b}),
                   {{"move", {{a, "", -1}, {b, "", +1}}}})});

  SanitizedRun run(ring.model);
  const auto& report = run.report();
  EXPECT_TRUE(has_kind(report, ViolationKind::kPredicateWrite))
      << report.render_text();
}

TEST(FootprintSanitizer, MissedTouchDetected) {
  Ring ring;
  ring.transfer("Back", ring.b, ring.a);
  auto a = ring.a;
  auto b = ring.b;
  auto& act = ring.s->add_timed_activity("Fwd", stats::make_deterministic(1.0));
  act.add_input_gate(InputGate{"Fwd_in", [a]() { return a->get() > 0; },
                               nullptr, access({a})});
  // A dynamic-writes gate must report every write through touch();
  // this one touches A but silently also writes B.
  act.add_output_gate(OutputGate{
      "Fwd_out",
      [a, b](GateContext& ctx) {
        a->mut() -= 1;
        b->mut() += 1;
        ctx.touch(a.get());
      },
      access_dynamic({}, {a, b})});

  SanitizedRun run(ring.model);
  const auto& report = run.report();
  EXPECT_TRUE(has_kind(report, ViolationKind::kMissedTouch))
      << report.render_text();
}

/// A Fwd transfer whose output gate declares two variants, "move" (A to
/// B) and "drain" (A only), and reports `report(a)` after moving a token
/// from A to B.
Activity& reporting_transfer(Ring& ring,
                             std::uint32_t (*report)(std::int64_t)) {
  auto a = ring.a;
  auto b = ring.b;
  auto& act = ring.s->add_timed_activity("Fwd", stats::make_deterministic(1.0));
  act.add_input_gate(InputGate{"Fwd_in", [a]() { return a->get() > 0; },
                               nullptr, access({a})});
  act.add_output_gate(OutputGate{
      "Fwd_out",
      [a, b, report](GateContext& ctx) {
        a->mut() -= 1;
        b->mut() += 1;
        ctx.report_variant(report(a->get()));
      },
      with_effects(access({}, {a, b}),
                   {{"move", {{a, "", -1}, {b, "", +1}}},
                    {"drain", {{a, "", -1}}}})});
  return act;
}

TEST(FootprintSanitizer, TruthfulVariantReportsAreClean) {
  Ring ring;
  ring.transfer("Back", ring.b, ring.a);
  reporting_transfer(ring, [](std::int64_t) { return std::uint32_t{0}; });

  SanitizedRun run(ring.model);
  const auto& report = run.report();
  EXPECT_TRUE(report.violations.empty()) << report.render_text();
}

TEST(FootprintSanitizer, WriteOutsideReportedVariantDetected) {
  Ring ring;
  ring.transfer("Back", ring.b, ring.a);
  // Reports "drain" (A only) although the gate also wrote B: the variant
  // row would skip B's dependents.
  reporting_transfer(ring, [](std::int64_t) { return std::uint32_t{1}; });

  SanitizedRun run(ring.model);
  const auto& report = run.report();
  EXPECT_TRUE(has_kind(report, ViolationKind::kWriteOutsideVariant))
      << report.render_text();
  EXPECT_FALSE(report.clean());
  for (const auto& v : report.violations) {
    if (v.kind == ViolationKind::kWriteOutsideVariant) {
      EXPECT_EQ(v.place, "S->B");
      EXPECT_EQ(v.gate, "Fwd_out");
    }
  }
}

TEST(FootprintSanitizer, VariantIndexOutOfRangeDetected) {
  Ring ring;
  ring.transfer("Back", ring.b, ring.a);
  reporting_transfer(ring, [](std::int64_t) { return std::uint32_t{2}; });

  SanitizedRun run(ring.model);
  const auto& report = run.report();
  EXPECT_TRUE(has_kind(report, ViolationKind::kVariantOutOfRange))
      << report.render_text();
  EXPECT_FALSE(report.clean());
}

TEST(FootprintSanitizer, VariantReportFromGateWithoutVariantsDetected) {
  Ring ring;
  ring.transfer("Back", ring.b, ring.a);
  auto a = ring.a;
  auto b = ring.b;
  auto& act = ring.s->add_timed_activity("Fwd", stats::make_deterministic(1.0));
  act.add_input_gate(InputGate{"Fwd_in", [a]() { return a->get() > 0; },
                               nullptr, access({a})});
  // Declares writes but no effect variants, so index 0 names nothing.
  act.add_output_gate(OutputGate{"Fwd_out",
                                 [a, b](GateContext& ctx) {
                                   a->mut() -= 1;
                                   b->mut() += 1;
                                   ctx.report_variant(0);
                                 },
                                 access({}, {a, b})});

  SanitizedRun run(ring.model);
  EXPECT_TRUE(has_kind(run.report(), ViolationKind::kVariantOutOfRange))
      << run.report().render_text();
}

TEST(FootprintSanitizer, VariantReportsKeepTheTrajectory) {
  // The sanitizer clears the report before each gate and restores it
  // after a gate that reported nothing: the run it checks must dirty
  // exactly what an unchecked run dirties.
  const auto run = [](bool verify) {
    Ring ring;
    ring.transfer("Back", ring.b, ring.a);
    reporting_transfer(ring, [](std::int64_t) { return std::uint32_t{0}; });
    SimulatorConfig config;
    config.end_time = 40.0;
    config.verify_footprints = verify;
    Simulator sim(config);
    sim.set_model(ring.model);
    return sim.run();
  };
  const RunStats plain = run(false);
  const RunStats checked = run(true);
  EXPECT_EQ(checked.events, plain.events);
  EXPECT_EQ(checked.enabling_evals, plain.enabling_evals);
}

TEST(FootprintSanitizer, StaleDeclaredWriteIsAdvisoryOnly) {
  Ring ring;
  auto a = ring.a;
  auto b = ring.b;
  auto& act = ring.s->add_timed_activity("Fwd", stats::make_deterministic(1.0));
  act.add_input_gate(InputGate{"Fwd_in", [a]() { return a->get() >= 0; },
                               nullptr, access({a})});
  // B is declared as a write (keeping dirty sets wide) but never written.
  act.add_output_gate(OutputGate{
      "Fwd_out", [a](GateContext&) { a->set(a->get()); },
      access({}, {a, b})});

  SanitizedRun run(ring.model);
  const auto& report = run.report();
  EXPECT_TRUE(has_kind(report, ViolationKind::kStaleDeclaredWrite))
      << report.render_text();
  EXPECT_TRUE(report.clean()) << "advisories must not fail the run";
}

TEST(FootprintSanitizer, BrokenConservationLawDetected) {
  Ring ring;
  ring.transfer("Back", ring.b, ring.a);
  auto a = ring.a;
  auto b = ring.b;
  auto& act = ring.s->add_timed_activity("Fwd", stats::make_deterministic(1.0));
  act.add_input_gate(InputGate{"Fwd_in", [a]() { return a->get() > 0; },
                               nullptr, access({a})});
  // Declares the conserving move but actually leaks the token: the
  // derived invariant A + B = 1 breaks on the first firing.
  act.add_output_gate(OutputGate{
      "Fwd_out", [a, b](GateContext&) { a->mut() -= 1; },
      with_effects(access({}, {a, b}),
                   {{"move", {{a, "", -1}, {b, "", +1}}}})});

  SanitizedRun run(ring.model, 2.0);
  const auto& report = run.report();
  EXPECT_TRUE(has_kind(report, ViolationKind::kInvariantViolated))
      << report.render_text();
}

TEST(FootprintSanitizer, ViolationsDedupAcrossFirings) {
  Ring ring;
  ring.transfer("Fwd", ring.a, ring.b);
  ring.transfer("Back", ring.b, ring.a);
  auto counter = ring.s->add_place<std::int64_t>("Counter", 0);
  auto a = ring.a;
  auto& act =
      ring.s->add_timed_activity("Sneaky", stats::make_deterministic(1.0));
  act.add_input_gate(InputGate{"Sneaky_in", [a]() { return a->get() >= 0; },
                               nullptr, access({a})});
  act.add_output_gate(OutputGate{
      "Sneaky_out", [counter](GateContext&) { counter->mut() += 1; },
      access({}, {})});

  SanitizedRun run(ring.model, 40.0);
  const auto& report = run.report();
  std::size_t undeclared = 0;
  for (const auto& v : report.violations) {
    if (v.kind == ViolationKind::kUndeclaredWrite) ++undeclared;
  }
  EXPECT_EQ(undeclared, 1u) << "repeat violations must dedup";
  EXPECT_GT(report.suppressed, 0u);
}

}  // namespace
}  // namespace vcpusim::san
