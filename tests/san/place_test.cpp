#include "san/place.hpp"

#include <gtest/gtest.h>

#include <locale>
#include <sstream>
#include <string>
#include <vector>

namespace vcpusim::san {
namespace {

/// The marking as a trace event renders it.
std::string rendered(const PlaceBase& place) {
  std::string out;
  place.value_string_to(out);
  return out;
}

TEST(Place, HoldsInitialMarking) {
  TokenPlace p("tokens", 3);
  EXPECT_EQ(p.get(), 3);
  EXPECT_EQ(p.name(), "tokens");
}

TEST(Place, SetAndMutate) {
  TokenPlace p("tokens", 0);
  p.set(5);
  EXPECT_EQ(p.get(), 5);
  p.mut() += 2;
  EXPECT_EQ(p.get(), 7);
}

TEST(Place, ResetRestoresInitialMarking) {
  TokenPlace p("tokens", 2);
  p.set(99);
  p.reset();
  EXPECT_EQ(p.get(), 2);
}

TEST(Place, StructMarking) {
  struct State {
    int a = 1;
    double b = 2.5;
  };
  Place<State> p("state", State{});
  p.mut().a = 10;
  p.mut().b = -1.0;
  EXPECT_EQ(p.get().a, 10);
  p.reset();
  EXPECT_EQ(p.get().a, 1);
  EXPECT_EQ(p.get().b, 2.5);
}

TEST(Place, VectorMarkingDeepResets) {
  Place<std::vector<int>> p("vec", {1, 2, 3});
  p.mut().push_back(4);
  p.mut()[0] = 9;
  p.reset();
  EXPECT_EQ(p.get(), (std::vector<int>{1, 2, 3}));
}

TEST(Place, ToStringStreamableType) {
  TokenPlace p("tokens", 42);
  EXPECT_EQ(rendered(p), "42");
}

TEST(Place, ToStringNonStreamableTypeFallsBack) {
  struct Opaque {
    int x = 0;
  };
  Place<Opaque> p("opaque", Opaque{});
  EXPECT_EQ(rendered(p), "<struct>");
}

/// A streamable marking type whose operator<< prints a double.
struct Load {
  double remaining = 2048.25;
  friend std::ostream& operator<<(std::ostream& os, const Load& l) {
    return os << l.remaining;
  }
};

/// Markings render as a default ostream does in the classic locale
/// (%.6g for floating point), whatever the global locale is: a
/// comma-decimal locale with digit grouping must not reach the trace.
TEST(Place, FloatingMarkingIgnoresGlobalLocale) {
  struct CommaDecimal final : std::numpunct<char> {
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
  };
  struct GlobalLocale {
    explicit GlobalLocale(const std::locale& l)
        : previous(std::locale::global(l)) {}
    ~GlobalLocale() { std::locale::global(previous); }
    std::locale previous;
  };
  const auto classic = [](auto v) {
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << v;
    return os.str();
  };
  const double values[] = {1234.5, 0.1, -2.75, 1e-7, 123456789.0, 0.0,
                           -0.0};
  GlobalLocale comma(std::locale(std::locale::classic(), new CommaDecimal));
  std::ostringstream probe;
  probe << 1234.5;
  ASSERT_EQ(probe.str(), "1.234,5");  // the locale is really in force
  for (const double v : values) {
    EXPECT_EQ(rendered(Place<double>("d", v)), classic(v));
    const auto f = static_cast<float>(v);
    EXPECT_EQ(rendered(Place<float>("f", f)), classic(f));
    const auto ld = static_cast<long double>(v);
    EXPECT_EQ(rendered(Place<long double>("l", ld)), classic(ld));
  }
  EXPECT_EQ(rendered(Place<double>("d", 1234.5)), "1234.5");
  // A user type's operator<< runs in the classic locale too.
  EXPECT_EQ(rendered(Place<Load>("load", Load{})), "2048.25");
}

TEST(Place, SharedAliasingSeesMutations) {
  auto p = std::make_shared<TokenPlace>("shared", 0);
  PlacePtr alias = p;  // the Join operation: same object, two holders
  p->set(7);
  EXPECT_EQ(std::static_pointer_cast<TokenPlace>(alias)->get(), 7);
}

}  // namespace
}  // namespace vcpusim::san
