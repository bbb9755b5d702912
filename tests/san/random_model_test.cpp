// Randomized SAN model stress test: generate random place / activity /
// gate graphs and require that every one is either rejected by the
// static analyzer or simulates cleanly — no negative markings, settle
// convergence, trajectory determinism across enabling modes. Runs under
// the sanitizer CI legs like every other san test.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "san/analyze/analyzer.hpp"
#include "san/model.hpp"
#include "san/sanitizer.hpp"
#include "san/simulator.hpp"
#include "stats/distribution.hpp"
#include "testing/helpers.hpp"

namespace vcpusim::san {
namespace {

using vcpusim::testing::PropertyRng;

using IntPlace = std::shared_ptr<Place<std::int64_t>>;

/// A randomly wired token net. Construction invariants keep it
/// *dynamically* well-formed — every consumer is guarded by a predicate
/// covering what it takes, every instantaneous activity strictly drains
/// its guard place — so a clean simulation is always achievable; whether
/// the *static* analyzer accepts it depends on the (randomly partial)
/// footprint declarations.
struct RandomNet {
  ComposedModel model{"Random"};
  std::vector<IntPlace> places;

  /// `reporting`: every declared output gate splits its output between
  /// two places and reports which EffectVariant it took
  /// (GateContext::report_variant). Off, the generator draws exactly the
  /// nets it always drew.
  explicit RandomNet(PropertyRng& rng, bool reporting = false)
      : reporting_(reporting) {
    auto& sub = model.add_submodel("N");
    const int num_places = rng.uniform_int(2, 8);
    places.reserve(static_cast<std::size_t>(num_places));
    for (int p = 0; p < num_places; ++p) {
      places.push_back(sub.add_place<std::int64_t>(
          "p" + std::to_string(p),
          static_cast<std::int64_t>(rng.uniform_int(0, 3))));
    }

    const int num_timed = rng.uniform_int(1, 6);
    for (int a = 0; a < num_timed; ++a) {
      auto& act = sub.add_timed_activity(
          "t" + std::to_string(a),
          rng.chance(0.5)
              ? stats::make_deterministic(rng.uniform(0.5, 3.0))
              : stats::make_exponential(rng.uniform(0.5, 3.0)));
      wire(rng, act, /*must_consume=*/false);
    }
    const int num_inst = rng.uniform_int(0, 2);
    for (int a = 0; a < num_inst; ++a) {
      auto& act = sub.add_instantaneous_activity("i" + std::to_string(a),
                                                 rng.uniform_int(0, 3));
      // Instantaneous activities must strictly drain their guard place
      // or enabling would persist across zero-time rounds (livelock).
      wire(rng, act, /*must_consume=*/true);
    }
  }

 private:
  IntPlace pick(PropertyRng& rng) {
    return places[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(places.size()) - 1))];
  }

  void wire(PropertyRng& rng, Activity& act, bool must_consume) {
    IntPlace src = pick(rng);
    IntPlace dst = pick(rng);
    const auto take = static_cast<std::int64_t>(rng.uniform_int(1, 2));
    const bool declared = rng.chance(0.7);  // footprints randomly partial

    InputGate in;
    in.name = act.name() + "_in";
    in.predicate = [src, take]() { return src->get() >= take; };
    const bool consume = must_consume || rng.chance(0.8);
    if (consume) {
      in.input_function = [src, take](GateContext&) { src->mut() -= take; };
    }
    if (declared) {
      in.footprint = consume ? access({src}, {src}) : access({src});
    }
    act.add_input_gate(std::move(in));

    OutputGate out;
    out.name = act.name() + "_out";
    // Instantaneous firings must strictly shrink the total token count,
    // or zero-time cycles (i0 moving p1->p2 while i1 moves p2->p1) spin
    // forever; timed activities may mint tokens freely.
    const auto give = static_cast<std::int64_t>(
        must_consume ? rng.uniform_int(0, static_cast<int>(take) - 1)
                     : rng.uniform_int(0, 2));
    out.function = [dst, give](GateContext&) { dst->mut() += give; };
    if (declared) out.footprint = access({}, {dst});
    if (reporting_ && declared) {
      // Gives to the emptier of dst and alt, and reports which.
      IntPlace alt = pick(rng);
      out.function = [dst, alt, give](GateContext& ctx) {
        if (dst->get() <= alt->get()) {
          dst->mut() += give;
          ctx.report_variant(0);
        } else {
          alt->mut() += give;
          ctx.report_variant(1);
        }
      };
      out.footprint = with_effects(access({dst, alt}, {dst, alt}),
                                   {{"to-dst", {{dst, "", give}}},
                                    {"to-alt", {{alt, "", give}}}});
    }
    act.add_output_gate(std::move(out));
  }

  bool reporting_ = false;
};

TEST(RandomModelStress, AnalyzeRejectsOrSimulatesWithoutViolations) {
  int analyzed_clean = 0;
  int rejected = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    PropertyRng rng(seed);
    RandomNet net(rng);

    const auto report = analyze::Analyzer().analyze(net.model);
    if (report.errors() > 0) {
      ++rejected;  // the analyzer's verdict is a valid outcome
      continue;
    }
    ++analyzed_clean;

    SimulatorConfig config;
    config.end_time = 50.0;
    config.seed = seed;
    Simulator sim(config);
    sim.set_model(net.model);
    const auto stats = sim.run();
    EXPECT_FALSE(stats.hit_event_cap) << "seed " << seed;
    for (const auto& place : net.places) {
      EXPECT_GE(place->get(), 0)
          << "negative marking in " << place->name() << " (seed " << seed
          << ")";
    }
  }
  // The generator must actually exercise the simulate path, not just
  // produce analyzer-rejected graphs.
  EXPECT_GT(analyzed_clean, 10) << "rejected " << rejected << " models";
}

TEST(RandomModelStress, TrajectoriesMatchAcrossEnablingModes) {
  // For every random net that survives analysis, the final marking must
  // not depend on whether the footprint-driven enabling index is used —
  // even when declarations are partial (partial means conservative).
  // The third mode is the index under trampoline dispatch
  // (verify_footprints): every predicate, opaque instantaneous reads
  // included, goes through its closure, yet the run must walk the same
  // dirty set as the lowered one, evaluation for evaluation.
  struct Mode {
    bool incremental;
    bool verify_footprints;
  };
  constexpr Mode kModes[] = {{true, false}, {false, false}, {true, true}};
  int compared = 0;
  for (std::uint64_t seed = 100; seed <= 130; ++seed) {
    std::vector<std::vector<std::int64_t>> finals;
    std::vector<std::uint64_t> evals;
    for (const Mode mode : kModes) {
      PropertyRng rng(seed);
      RandomNet net(rng);
      if (analyze::Analyzer().analyze(net.model).errors() > 0) break;
      SimulatorConfig config;
      config.end_time = 40.0;
      config.seed = seed;
      config.incremental_enabling = mode.incremental;
      config.verify_footprints = mode.verify_footprints;
      Simulator sim(config);
      sim.set_model(net.model);
      evals.push_back(sim.run().enabling_evals);
      std::vector<std::int64_t> marking;
      marking.reserve(net.places.size());
      for (const auto& place : net.places) marking.push_back(place->get());
      finals.push_back(std::move(marking));
    }
    if (finals.size() == 3) {
      ++compared;
      EXPECT_EQ(finals[0], finals[1]) << "seed " << seed;
      EXPECT_EQ(finals[2], finals[1]) << "seed " << seed;
      EXPECT_EQ(evals[2], evals[0]) << "seed " << seed;
    }
  }
  EXPECT_GT(compared, 20);
}

TEST(RandomModelStress, VariantReportsMatchAcrossEnablingModesAndAreClean) {
  // Nets whose declared output gates report their executed variant: the
  // variant rows must walk the full-scan trajectory, the sanitizer must
  // find every report covering its writes, and the sanitized run must
  // dirty exactly what the lowered one dirties.
  struct Mode {
    bool incremental;
    bool verify_footprints;
  };
  constexpr Mode kModes[] = {{true, false}, {false, false}, {true, true}};
  int compared = 0;
  for (std::uint64_t seed = 300; seed <= 340; ++seed) {
    std::vector<std::vector<std::int64_t>> finals;
    std::vector<std::uint64_t> evals;
    for (const Mode mode : kModes) {
      PropertyRng rng(seed);
      RandomNet net(rng, /*reporting=*/true);
      if (analyze::Analyzer().analyze(net.model).errors() > 0) break;
      SimulatorConfig config;
      config.end_time = 40.0;
      config.seed = seed;
      config.incremental_enabling = mode.incremental;
      config.verify_footprints = mode.verify_footprints;
      Simulator sim(config);
      sim.set_model(net.model);
      evals.push_back(sim.run().enabling_evals);
      if (mode.verify_footprints) {
        const FootprintReport* report = sim.footprint_report();
        ASSERT_NE(report, nullptr);
        EXPECT_TRUE(report->clean())
            << "seed " << seed << "\n" << report->render_text();
      }
      std::vector<std::int64_t> marking;
      marking.reserve(net.places.size());
      for (const auto& place : net.places) marking.push_back(place->get());
      finals.push_back(std::move(marking));
    }
    if (finals.size() == 3) {
      ++compared;
      EXPECT_EQ(finals[0], finals[1]) << "seed " << seed;
      EXPECT_EQ(finals[2], finals[1]) << "seed " << seed;
      EXPECT_EQ(evals[2], evals[0]) << "seed " << seed;
    }
  }
  EXPECT_GT(compared, 20);
}

TEST(RandomModelStress, ReplicationsAreReproducible) {
  for (std::uint64_t seed = 200; seed <= 210; ++seed) {
    std::vector<std::uint64_t> event_counts;
    for (int run = 0; run < 2; ++run) {
      PropertyRng rng(seed);
      RandomNet net(rng);
      SimulatorConfig config;
      config.end_time = 30.0;
      config.seed = seed;
      Simulator sim(config);
      sim.set_model(net.model);
      event_counts.push_back(sim.run().events);
    }
    EXPECT_EQ(event_counts[0], event_counts[1]) << "seed " << seed;
  }
}

}  // namespace
}  // namespace vcpusim::san
