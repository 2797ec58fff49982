#include "core/explanation.h"

#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "window_stream.h"

namespace churnlab {
namespace core {
namespace {

// Streams one symbol set per window and explains each window just before it
// closes, then fills in stability and drop from the closed windows' points.
std::vector<WindowExplanation> Explain(
    const ExplanationEngine& engine,
    const std::vector<std::vector<Symbol>>& sets) {
  SignificanceOptions alpha2;
  alpha2.alpha = 2.0;
  std::vector<WindowExplanation> explanations;
  std::vector<Symbol> previous;
  const std::vector<StabilityPoint> points = StreamWindows(
      sets, alpha2, [&](const OnlineStabilityScorer& scorer) {
        const std::span<const Symbol> window = scorer.current_symbols();
        explanations.push_back(
            engine.Explain(scorer.tracker(), window, previous));
        previous.assign(window.begin(), window.end());
      });
  for (size_t k = 0; k < explanations.size(); ++k) {
    explanations[k].stability = points[k].stability;
    explanations[k].drop_from_previous =
        k == 0 ? 0.0 : points[k - 1].stability - points[k].stability;
  }
  return explanations;
}

TEST(ExplanationEngine, ArgmaxMissingProductMatchesPaperDefinition) {
  // History: a bought 3x, b bought 1x; final window has neither. The
  // explanation must name a (the most significant missing product) first.
  const ExplanationEngine engine;
  const auto explanations = Explain(engine, {{1}, {1}, {1, 2}, {}});
  ASSERT_EQ(explanations.size(), 4u);
  const WindowExplanation& last = explanations[3];
  ASSERT_GE(last.missing.size(), 2u);
  EXPECT_EQ(last.MostSignificantMissing(), 1u);
  EXPECT_GT(last.missing[0].significance, last.missing[1].significance);
}

TEST(ExplanationEngine, NoMissingWhenEverythingPresent) {
  const ExplanationEngine engine;
  const auto explanations = Explain(engine, {{1, 2}, {1, 2}});
  EXPECT_TRUE(explanations[1].missing.empty());
  EXPECT_EQ(explanations[1].MostSignificantMissing(), kInvalidSymbol);
}

TEST(ExplanationEngine, FirstWindowHasNoExplanation) {
  const ExplanationEngine engine;
  const auto explanations = Explain(engine, {{1, 2}});
  ASSERT_EQ(explanations.size(), 1u);
  EXPECT_TRUE(explanations[0].missing.empty());
  EXPECT_DOUBLE_EQ(explanations[0].drop_from_previous, 0.0);
}

TEST(ExplanationEngine, NewlyMissingFlagsOnlyFreshLosses) {
  // b present in window 1, missing from window 2 onward: newly_missing in
  // window 2, not in window 3.
  const ExplanationEngine engine;
  const auto explanations = Explain(engine, {{1, 2}, {1, 2}, {1}, {1}});
  const auto find_b = [](const WindowExplanation& explanation) {
    for (const MissingSymbol& missing : explanation.missing) {
      if (missing.symbol == 2) return missing;
    }
    return MissingSymbol{};
  };
  EXPECT_TRUE(find_b(explanations[2]).newly_missing);
  EXPECT_FALSE(find_b(explanations[3]).newly_missing);
}

TEST(ExplanationEngine, SharesSumToStabilityDeficit) {
  // With no truncation, the significance shares of missing products sum to
  // exactly 1 - stability.
  ExplanationOptions options;
  options.top_k = 100;
  options.min_significance_share = 0.0;
  const ExplanationEngine engine(options);
  const auto explanations = Explain(engine, {{1, 2, 3}, {1, 2, 3}, {1}});
  const WindowExplanation& last = explanations[2];
  double share_sum = 0.0;
  for (const MissingSymbol& missing : last.missing) {
    share_sum += missing.significance_share;
  }
  EXPECT_NEAR(share_sum, 1.0 - last.stability, 1e-12);
}

TEST(ExplanationEngine, TopKTruncates) {
  ExplanationOptions options;
  options.top_k = 2;
  const ExplanationEngine engine(options);
  const auto explanations = Explain(engine, {{1, 2, 3, 4, 5}, {}});
  ASSERT_EQ(explanations.size(), 2u);
  EXPECT_EQ(explanations[1].missing.size(), 2u);
}

TEST(ExplanationEngine, MinShareFiltersNoise) {
  // Product 2 bought once long ago has tiny significance by window 5.
  ExplanationOptions options;
  options.min_significance_share = 0.2;
  const ExplanationEngine engine(options);
  const auto explanations =
      Explain(engine, {{1, 2}, {1}, {1}, {1}, {1}, {1}});
  for (const MissingSymbol& missing : explanations[5].missing) {
    EXPECT_GE(missing.significance_share, 0.2);
  }
}

TEST(ExplanationEngine, DropFromPreviousMatchesSeries) {
  const ExplanationEngine engine;
  const auto explanations = Explain(engine, {{1, 2}, {1, 2}, {1}});
  // Window 1 stability 1.0; window 2 drops to S(1)/(S(1)+S(2)).
  EXPECT_NEAR(explanations[2].drop_from_previous,
              explanations[1].stability - explanations[2].stability, 1e-12);
  EXPECT_GT(explanations[2].drop_from_previous, 0.0);
}

TEST(ExplanationEngine, MissingSortedBySignificanceDescending) {
  const ExplanationEngine engine;
  const auto explanations = Explain(engine, {{1}, {1, 2}, {1, 2, 3}, {}});
  const WindowExplanation& last = explanations[3];
  for (size_t i = 1; i < last.missing.size(); ++i) {
    EXPECT_GE(last.missing[i - 1].significance, last.missing[i].significance);
  }
}

}  // namespace
}  // namespace core
}  // namespace churnlab
