#ifndef CHURNLAB_TESTS_SIGNIFICANCE_REFERENCE_H_
#define CHURNLAB_TESTS_SIGNIFICANCE_REFERENCE_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/significance.h"
#include "core/stability.h"
#include "core/symbol_mapper.h"
#include "retail/types.h"

namespace churnlab {
namespace core {

/// \brief Reference oracle for SignificanceTracker: the original
/// scan-based implementation, kept verbatim behind the same interface.
///
/// TotalSignificance() re-derives the denominator by scanning the whole
/// seen-symbol table and calling ClampedPow per entry — O(seen catalogue)
/// per window, O(windows x catalogue) per customer series. That cost is why
/// the production tracker went incremental; this class exists so property
/// tests (significance_equivalence_test.cc) can pit the O(|u_k|)
/// implementation against the direct formula on arbitrary histories.
///
/// Semantics are the paper's, identical to SignificanceTracker within
/// floating-point reassociation error.
class ReferenceSignificanceTracker {
 public:
  explicit ReferenceSignificanceTracker(SignificanceOptions options);

  /// Validates options exactly as SignificanceTracker::Make does.
  static Result<ReferenceSignificanceTracker> Make(
      SignificanceOptions options);

  /// S(p, current window). Zero for never-seen symbols.
  double SignificanceOf(Symbol symbol) const;

  /// c(current window) for `symbol`.
  int32_t ContainCount(Symbol symbol) const;

  /// l(current window) for `symbol`; zero for never-seen symbols.
  int32_t MissCount(Symbol symbol) const;

  /// Sum of S(p, current window) over every symbol in I, by scanning the
  /// seen-symbol table.
  double TotalSignificance() const;

  /// Sum of S(p, current window) over `symbols` (sorted; duplicate
  /// neighbours counted once).
  double PresentSignificance(const std::vector<Symbol>& symbols) const;

  /// All symbols with c > 0, ascending.
  std::vector<Symbol> SeenSymbols() const;

  /// Folds window k's symbol set into the counters.
  void AdvanceWindow(const std::vector<Symbol>& window_symbols);

  int32_t windows_seen() const { return windows_seen_; }

  const SignificanceOptions& options() const { return options_; }

 private:
  SignificanceOptions options_;
  std::unordered_map<Symbol, int32_t> contain_counts_;
  /// kEwma only: the running presence average per seen symbol.
  std::unordered_map<Symbol, double> ewma_scores_;
  int32_t windows_seen_ = 0;
};

/// Relative agreement bound between the production kernels and this
/// oracle: the two sum the same terms in different orders.
inline constexpr double kReferenceTolerance = 1e-9;

/// EXPECTs |actual - expected| <= kReferenceTolerance * max(1, |actual|,
/// |expected|), labelling a failure with `what`.
void ExpectClose(double actual, double expected,
                         const std::string& what);

/// The paper's stability series of one customer, independent of the
/// streaming kernel: window k's union u_k is a std::set of the mapped
/// symbols of the receipts with day in [k * span_days, (k+1) * span_days),
/// for k < num_windows, scored with ReferenceSignificanceTracker.
std::vector<StabilityPoint> ReferenceStabilitySeries(
    std::span<const retail::Receipt> receipts, const SymbolMapper& mapper,
    retail::Day span_days, int32_t num_windows,
    const SignificanceOptions& options);

/// EXPECTs `actual` to match `reference` window by window: same indices
/// and burn-in flags, significances and stability within
/// kReferenceTolerance.
void ExpectMatchesReferenceSeries(std::span<const StabilityPoint> actual,
                                  std::span<const StabilityPoint> reference,
                                  const std::string& what);

}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_TESTS_SIGNIFICANCE_REFERENCE_H_
