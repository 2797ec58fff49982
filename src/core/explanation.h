#ifndef CHURNLAB_CORE_EXPLANATION_H_
#define CHURNLAB_CORE_EXPLANATION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/significance.h"
#include "core/symbol_mapper.h"

namespace churnlab {
namespace core {

/// One product (symbol) that was significant but absent from a window.
struct MissingSymbol {
  Symbol symbol = kInvalidSymbol;
  /// S(p, k) at the explained window.
  double significance = 0.0;
  /// Share of the window's total significance this symbol accounts for —
  /// exactly the stability lost by its absence.
  double significance_share = 0.0;
  /// True when the symbol was present in window k-1 (a *new* loss, the kind
  /// Figure 2 annotates), false when it was already missing before.
  bool newly_missing = false;
};

/// Why window k has the stability it has.
struct WindowExplanation {
  int32_t window_index = 0;
  /// The window's stability and stability(k-1) - stability(k) (positive on
  /// drops, 0 for window 0). Filled in from the stability series once the
  /// window has closed; ExplanationEngine leaves the defaults.
  double stability = 1.0;
  double drop_from_previous = 0.0;
  /// Missing significant symbols, most significant first, truncated to the
  /// engine's top_k. The paper's single-product explanation is the front
  /// element; the "easily extended to a set of products" variant is the
  /// whole vector.
  std::vector<MissingSymbol> missing;

  /// The argmax_{p not in u_k} S(p,k) of the paper, or kInvalidSymbol when
  /// nothing significant is missing.
  Symbol MostSignificantMissing() const {
    return missing.empty() ? kInvalidSymbol : missing.front().symbol;
  }
};

/// Options for the explanation engine.
struct ExplanationOptions {
  /// Maximum number of missing symbols reported per window.
  size_t top_k = 5;
  /// Symbols whose significance share is below this fraction of the window
  /// total are not reported (noise floor).
  double min_significance_share = 1e-6;
};

/// \brief Produces per-window attrition explanations (section 3.2).
///
/// For a window it lists the significant-but-absent symbols ranked by
/// S(p,k), which is the product-level account of the window's stability
/// decrease: the drop contributed by a missing symbol equals its
/// significance share.
class ExplanationEngine {
 public:
  explicit ExplanationEngine(ExplanationOptions options = {});

  /// Explains window k = tracker.windows_seen() from the tracker that
  /// scores it (S(p,k) over windows 0..k-1), the window's symbol union
  /// `window` and the previous window's union `previous` (empty for window
  /// 0). Both spans must be sorted. Call it just before window k closes,
  /// e.g. with OnlineStabilityScorer::tracker() and current_symbols().
  WindowExplanation Explain(const SignificanceTracker& tracker,
                            std::span<const Symbol> window,
                            std::span<const Symbol> previous) const;

  const ExplanationOptions& options() const { return options_; }

 private:
  ExplanationOptions options_;
};

}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_CORE_EXPLANATION_H_
