#include "core/explanation.h"

#include <algorithm>

namespace churnlab {
namespace core {

ExplanationEngine::ExplanationEngine(ExplanationOptions options)
    : options_(options) {}

WindowExplanation ExplanationEngine::Explain(
    const SignificanceTracker& tracker, std::span<const Symbol> window,
    std::span<const Symbol> previous) const {
  WindowExplanation explanation;
  explanation.window_index = tracker.windows_seen();
  const double total = tracker.TotalSignificance();
  if (total <= 0.0) return explanation;
  for (const Symbol symbol : tracker.SeenSymbols()) {
    if (std::binary_search(window.begin(), window.end(), symbol)) continue;
    const double significance = tracker.SignificanceOf(symbol);
    const double share = significance / total;
    if (share < options_.min_significance_share) continue;
    MissingSymbol missing;
    missing.symbol = symbol;
    missing.significance = significance;
    missing.significance_share = share;
    missing.newly_missing =
        std::binary_search(previous.begin(), previous.end(), symbol);
    explanation.missing.push_back(missing);
  }
  std::stable_sort(explanation.missing.begin(), explanation.missing.end(),
                   [](const MissingSymbol& a, const MissingSymbol& b) {
                     return a.significance > b.significance;
                   });
  if (explanation.missing.size() > options_.top_k) {
    explanation.missing.resize(options_.top_k);
  }
  return explanation;
}

}  // namespace core
}  // namespace churnlab
