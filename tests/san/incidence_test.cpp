// Incidence-structure extraction tests: token universe construction
// (views + implicit identity components), column emission (cross
// product, compositional variants), opacity rules, and the
// effect/footprint consistency diagnostics.
#include "san/analyze/incidence.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "san/model.hpp"
#include "san/token_view.hpp"
#include "stats/distribution.hpp"

namespace vcpusim::san::analyze {
namespace {

const TokenInfo* find_token(const IncidenceStructure& inc,
                            const std::string& name) {
  for (const auto& t : inc.tokens) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

const VariantColumn* find_column(const IncidenceStructure& inc,
                                 const std::string& label) {
  for (const auto& c : inc.columns) {
    if (c.label == label) return &c;
  }
  return nullptr;
}

std::size_t count_check(const IncidenceStructure& inc, const char* check_id) {
  std::size_t n = 0;
  for (const auto& d : inc.diagnostics) {
    if (d.check == check_id) ++n;
  }
  return n;
}

/// One token circulating A -> B -> A.
struct RingFixture {
  ComposedModel model{"Ring"};
  SanModel* s = nullptr;
  std::shared_ptr<TokenPlace> a;
  std::shared_ptr<TokenPlace> b;

  RingFixture() {
    s = &model.add_submodel("S");
    a = s->add_place<std::int64_t>("A", 1);
    b = s->add_place<std::int64_t>("B", 0);
    add_transfer("Fwd", a, b);
    add_transfer("Back", b, a);
  }

  void add_transfer(const std::string& name,
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
  }
};

TEST(Incidence, RingExtractsIdentityTokensAndColumns) {
  RingFixture ring;
  const auto inc = extract_incidence(ring.model);
  ASSERT_TRUE(inc.complete);
  EXPECT_EQ(inc.tokens.size(), 2u);
  EXPECT_NE(find_token(inc, "S->A"), nullptr);
  EXPECT_NE(find_token(inc, "S->B"), nullptr);
  EXPECT_EQ(inc.transparent_tokens(), 2u);

  ASSERT_EQ(inc.columns.size(), 2u);
  const auto* fwd = find_column(inc, "S->Fwd/move");
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(fwd->deltas.size(), 2u);
  EXPECT_TRUE(count_check(inc, check::kIncompleteEffects) == 0 &&
              count_check(inc, check::kEffectFootprintMismatch) == 0);
}

TEST(Incidence, UndeclaredFootprintMakesExtractionUnavailable) {
  RingFixture ring;
  auto& act =
      ring.s->add_timed_activity("Opaque", stats::make_deterministic(1.0));
  auto a = ring.a;
  act.add_output_gate(OutputGate{
      "Mystery", [a](GateContext&) { a->mut() += 1; }, GateAccess{}});

  const auto inc = extract_incidence(ring.model);
  EXPECT_FALSE(inc.complete);
  EXPECT_TRUE(inc.tokens.empty());
  EXPECT_TRUE(inc.columns.empty());
}

TEST(Incidence, DeclaredWritesWithoutEffectsOpaqueTheTokens) {
  RingFixture ring;
  auto& act =
      ring.s->add_timed_activity("NoEffects", stats::make_deterministic(1.0));
  auto a = ring.a;
  act.add_output_gate(OutputGate{
      "Plain", [a](GateContext&) { a->mut() += 1; }, access({}, {a})});

  const auto inc = extract_incidence(ring.model);
  ASSERT_TRUE(inc.complete);
  const auto* token_a = find_token(inc, "S->A");
  ASSERT_NE(token_a, nullptr);
  EXPECT_TRUE(token_a->opaque);
  EXPECT_FALSE(find_token(inc, "S->B")->opaque);
  EXPECT_EQ(count_check(inc, check::kIncompleteEffects), 1u);
  // Columns drop deltas on the opaqued token.
  const auto* fwd = find_column(inc, "S->Fwd/move");
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(fwd->deltas.size(), 1u);
}

TEST(Incidence, EffectDeltaOutsideWriteFootprintIsAnError) {
  RingFixture ring;
  auto& act =
      ring.s->add_timed_activity("Bad", stats::make_deterministic(1.0));
  auto a = ring.a;
  auto b = ring.b;
  // Declares a delta on B while only A is in the write footprint: the
  // static mirror of an under-declared write.
  act.add_output_gate(OutputGate{
      "BadOut", [a](GateContext&) { a->mut() += 1; },
      with_effects(access({}, {a}), {{"fire", {{b, "", +1}}}})});

  const auto inc = extract_incidence(ring.model);
  ASSERT_TRUE(inc.complete);
  EXPECT_EQ(count_check(inc, check::kEffectFootprintMismatch), 1u);
}

TEST(Incidence, VariantWrittenPlaceOutsideWriteFootprintIsAnError) {
  RingFixture ring;
  auto& act =
      ring.s->add_timed_activity("Bad", stats::make_deterministic(1.0));
  auto a = ring.a;
  auto b = ring.b;
  // The variant names B as written (no token delta) while the gate's
  // write footprint holds only A: the static analyses would miss the
  // write a variant report admits.
  act.add_output_gate(OutputGate{
      "BadOut", [a](GateContext&) { a->mut() += 1; },
      with_effects(access({}, {a}), {{"fire", {{a, "", +1}}, {b}}})});

  const auto inc = extract_incidence(ring.model);
  ASSERT_TRUE(inc.complete);
  EXPECT_EQ(count_check(inc, check::kEffectFootprintMismatch), 1u);
}

TEST(Incidence, VariantWrittenPlacesInsideWriteFootprintAreClean) {
  RingFixture ring;
  auto& act =
      ring.s->add_timed_activity("Good", stats::make_deterministic(1.0));
  auto a = ring.a;
  auto b = ring.b;
  act.add_output_gate(OutputGate{
      "GoodOut", [a](GateContext&) { a->mut() += 1; },
      with_effects(access({}, {a, b}),
                   {{"fire", {{a, "", +1}}, {b}}, {"quiet", {}, {b}}})});

  const auto inc = extract_incidence(ring.model);
  ASSERT_TRUE(inc.complete);
  EXPECT_EQ(count_check(inc, check::kEffectFootprintMismatch), 0u);
}

TEST(Incidence, UnknownTokenComponentIsAnError) {
  RingFixture ring;
  auto& act =
      ring.s->add_timed_activity("Bad", stats::make_deterministic(1.0));
  auto a = ring.a;
  act.add_output_gate(OutputGate{
      "BadOut", [a](GateContext&) { a->mut() += 1; },
      with_effects(access({}, {a}), {{"fire", {{a, "no_such", +1}}}})});

  const auto inc = extract_incidence(ring.model);
  ASSERT_TRUE(inc.complete);
  EXPECT_EQ(count_check(inc, check::kEffectFootprintMismatch), 1u);
}

TEST(Incidence, TokenViewComplementPairAndCrossProduct) {
  ComposedModel model("Flags");
  auto& s = model.add_submodel("S");
  auto flag = s.add_place<std::int64_t>("Flag", 0);
  auto count = s.add_place<std::int64_t>("Count", 0);
  model.record_token_view(flag_view(flag));

  auto& act = s.add_timed_activity("Toggle", stats::make_deterministic(1.0));
  // Two gates with two variants each: the cross product emits four
  // columns with combined labels.
  act.add_output_gate(OutputGate{
      "FlagOut", [flag](GateContext&) { flag->set(1 - flag->get()); },
      with_effects(access({flag}, {flag}),
                   {{"raise", {{flag, "set", +1}, {flag, "clear", -1}}},
                    {"lower", {{flag, "set", -1}, {flag, "clear", +1}}}})});
  act.add_output_gate(OutputGate{
      "CountOut", [count](GateContext&) { count->mut() += 1; },
      with_effects(access({}, {count}),
                   {{"bump", {{count, "", +1}}}, {"hold", {}}})});

  const auto inc = extract_incidence(model);
  ASSERT_TRUE(inc.complete);
  EXPECT_NE(find_token(inc, "S->Flag.set"), nullptr);
  EXPECT_NE(find_token(inc, "S->Flag.clear"), nullptr);
  EXPECT_EQ(inc.columns.size(), 4u);
  EXPECT_NE(find_column(inc, "S->Toggle/raise+bump"), nullptr);
  EXPECT_NE(find_column(inc, "S->Toggle/lower+hold"), nullptr);
}

TEST(Incidence, CompositionalGateEmitsStandaloneColumns) {
  ComposedModel model("Comp");
  auto& s = model.add_submodel("S");
  auto x = s.add_place<std::int64_t>("X", 2);
  auto y = s.add_place<std::int64_t>("Y", 0);

  auto& act = s.add_timed_activity("Bridge", stats::make_deterministic(1.0));
  act.add_output_gate(OutputGate{
      "Micro",
      [x, y](GateContext&) {
        x->mut() -= 1;
        y->mut() += 1;
      },
      with_compositional_effects(
          access({x}, {x, y}),
          {{"xfer", {{x, "", -1}, {y, "", +1}}},
           {"back", {{x, "", +1}, {y, "", -1}}}})});

  const auto inc = extract_incidence(model);
  ASSERT_TRUE(inc.complete);
  ASSERT_EQ(inc.columns.size(), 2u);
  EXPECT_NE(find_column(inc, "S->Bridge/Micro:xfer"), nullptr);
  EXPECT_NE(find_column(inc, "S->Bridge/Micro:back"), nullptr);
}

TEST(Incidence, OpaqueEffectsExcludeTokenFromMatrix) {
  RingFixture ring;
  auto cursor = ring.s->add_place<std::int64_t>("Cursor", 0);
  auto& act =
      ring.s->add_timed_activity("Scan", stats::make_deterministic(1.0));
  act.add_output_gate(OutputGate{
      "Advance",
      [cursor](GateContext&) { cursor->mut() = (cursor->get() + 7) % 5; },
      with_effects(access({cursor}, {cursor}), {{"step", {}}}, {cursor})});

  const auto inc = extract_incidence(ring.model);
  ASSERT_TRUE(inc.complete);
  const auto* token = find_token(inc, "S->Cursor");
  ASSERT_NE(token, nullptr);
  EXPECT_TRUE(token->opaque);
  EXPECT_EQ(inc.transparent_tokens(), 2u);
}

}  // namespace
}  // namespace vcpusim::san::analyze
