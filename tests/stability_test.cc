// Hand-computed cases of the stability formula of section 2,
//
//   Stability_i^k = sum_{p in u_k} S(p,k) / sum_{p in I} S(p,k),
//
// streamed one symbol set per window through the scorer that every scoring
// path shares.

#include "core/stability.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "window_stream.h"

namespace churnlab {
namespace core {
namespace {

SignificanceOptions Alpha(double alpha) {
  SignificanceOptions options;
  options.alpha = alpha;
  return options;
}

std::vector<StabilityPoint> Stream(
    const std::vector<std::vector<Symbol>>& sets, double alpha = 2.0) {
  return StreamWindows(sets, Alpha(alpha));
}

TEST(StabilityComputer, FirstWindowHasNoHistoryAndStabilityOne) {
  const std::vector<StabilityPoint> series = Stream({{1, 2}});
  ASSERT_EQ(series.size(), 1u);
  EXPECT_FALSE(series[0].has_history);
  EXPECT_DOUBLE_EQ(series[0].stability, 1.0);
  EXPECT_DOUBLE_EQ(series[0].total_significance, 0.0);
}

TEST(StabilityComputer, AllProductsPresentGivesStabilityOne) {
  // Paper: "If all products are contained in window k, the stability of the
  // customer is equal to 1."
  const std::vector<StabilityPoint> series =
      Stream({{1, 2, 3}, {1, 2, 3}, {1, 2, 3}});
  for (size_t k = 1; k < series.size(); ++k) {
    EXPECT_TRUE(series[k].has_history);
    EXPECT_DOUBLE_EQ(series[k].stability, 1.0);
  }
}

TEST(StabilityComputer, EmptyWindowAfterHistoryGivesZero) {
  const std::vector<StabilityPoint> series = Stream({{1, 2}, {}});
  ASSERT_EQ(series.size(), 2u);
  EXPECT_TRUE(series[1].has_history);
  EXPECT_DOUBLE_EQ(series[1].stability, 0.0);
}

TEST(StabilityComputer, HandComputedTwoProductCase) {
  // Windows: {a,b}, {a} -> at k=1: S(a)=S(b)=2^(2*1-1)=2.
  // Stability_1 = S(a) / (S(a)+S(b)) = 0.5.
  const std::vector<StabilityPoint> series = Stream({{1, 2}, {1}});
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[1].present_significance, 2.0);
  EXPECT_DOUBLE_EQ(series[1].total_significance, 4.0);
  EXPECT_DOUBLE_EQ(series[1].stability, 0.5);
}

TEST(StabilityComputer, DecreaseProportionalToMissingSignificance) {
  // Build a long-standing habit a (4 windows) and a newcomer b (1 window),
  // then drop each in turn. Dropping the significant product must hurt
  // more. Windows: {a},{a},{a},{a,b}, then test {b} vs {a}.
  const std::vector<StabilityPoint> drop_a =
      Stream({{1}, {1}, {1}, {1, 2}, {2}});
  const std::vector<StabilityPoint> drop_b =
      Stream({{1}, {1}, {1}, {1, 2}, {1}});
  // At k=4: S(a) = 2^(2*4-4) = 16, S(b) = 2^(2*1-4) = 1/4.
  EXPECT_DOUBLE_EQ(drop_a[4].stability, 0.25 / 16.25);
  EXPECT_DOUBLE_EQ(drop_b[4].stability, 16.0 / 16.25);
  EXPECT_LT(drop_a[4].stability, drop_b[4].stability);
}

TEST(StabilityComputer, NewProductsDoNotInflateStability) {
  // A never-before-seen product contributes S = 0 to the numerator.
  const std::vector<StabilityPoint> with_new = Stream({{1}, {1, 99}});
  const std::vector<StabilityPoint> without_new = Stream({{1}, {1}});
  EXPECT_DOUBLE_EQ(with_new[1].stability, without_new[1].stability);
}

TEST(StabilityComputer, RecoveryAfterMissedWindow) {
  // Miss one window, then resume: stability dips then climbs back as the
  // missing window's penalty decays.
  const std::vector<StabilityPoint> series =
      Stream({{1}, {1}, {}, {1}, {1}, {1}});
  EXPECT_DOUBLE_EQ(series[2].stability, 0.0);
  EXPECT_DOUBLE_EQ(series[3].stability, 1.0);  // only product returns
  EXPECT_DOUBLE_EQ(series[4].stability, 1.0);
}

TEST(StabilityComputer, RobustToDuplicateSymbolsInWindow) {
  // A duplicated symbol must not double-count significance (stability
  // would exceed 1).
  const std::vector<StabilityPoint> series = Stream({{1, 1, 2}, {1, 1}});
  EXPECT_DOUBLE_EQ(series[1].stability, 0.5);
}

TEST(StabilityComputer, CallbackSeesPreAdvanceTrackerState) {
  // Just before window k closes, the tracker reflects windows 0..k-1.
  std::vector<int32_t> windows_seen;
  StreamWindows({{1}, {1}, {1}}, Alpha(2.0),
                [&](const OnlineStabilityScorer& scorer) {
                  windows_seen.push_back(scorer.tracker().windows_seen());
                  EXPECT_EQ(scorer.tracker().windows_seen(),
                            scorer.current_window());
                });
  EXPECT_EQ(windows_seen, (std::vector<int32_t>{0, 1, 2}));
}

// Property: stability is always within [0, 1] for random histories and a
// range of alphas.
class StabilityBoundsTest : public ::testing::TestWithParam<double> {};

TEST_P(StabilityBoundsTest, StabilityStaysInUnitInterval) {
  const double alpha = GetParam();
  Rng rng(static_cast<uint64_t>(alpha * 1000));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::vector<Symbol>> sets(12);
    for (auto& set : sets) {
      const size_t size = rng.NextUint64(8);
      for (size_t i = 0; i < size; ++i) {
        set.push_back(static_cast<Symbol>(rng.NextUint64(10)));
      }
    }
    for (const StabilityPoint& point : Stream(sets, alpha)) {
      EXPECT_GE(point.stability, 0.0);
      EXPECT_LE(point.stability, 1.0 + 1e-12);
      EXPECT_GE(point.total_significance, point.present_significance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, StabilityBoundsTest,
                         ::testing::Values(0.5, 1.0, 1.5, 2.0, 4.0, 8.0));

}  // namespace
}  // namespace core
}  // namespace churnlab
