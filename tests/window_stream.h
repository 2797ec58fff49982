#ifndef CHURNLAB_TESTS_WINDOW_STREAM_H_
#define CHURNLAB_TESTS_WINDOW_STREAM_H_

#include <functional>
#include <vector>

#include "core/online_scorer.h"

namespace churnlab {
namespace core {

/// Streams `sets[k]` as the single observation of window k (span 60 days)
/// through a fresh scorer over `significance`, calling `before_close` with
/// the scorer just before each window closes. Returns every window's point.
inline std::vector<StabilityPoint> StreamWindows(
    const std::vector<std::vector<Symbol>>& sets,
    const SignificanceOptions& significance,
    const std::function<void(const OnlineStabilityScorer&)>& before_close =
        {}) {
  OnlineStabilityScorer::Options options;
  options.significance = significance;
  options.window_span_days = 60;
  OnlineStabilityScorer scorer =
      OnlineStabilityScorer::Make(options).ValueOrDie();
  std::vector<StabilityPoint> points;
  for (size_t k = 0; k < sets.size(); ++k) {
    const retail::Day begin = static_cast<retail::Day>(k) * 60;
    scorer.Observe(begin, sets[k]).ValueOrDie();
    if (before_close) before_close(scorer);
    const std::vector<StabilityPoint> closed =
        scorer.AdvanceTo(begin + 60).ValueOrDie();
    points.insert(points.end(), closed.begin(), closed.end());
  }
  return points;
}

}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_TESTS_WINDOW_STREAM_H_
