#ifndef CHURNLAB_CORE_STABILITY_H_
#define CHURNLAB_CORE_STABILITY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace churnlab {
namespace core {

/// Stability of one window of one customer (section 2 of the paper):
///
///   Stability_i^k = sum_{p in u_k} S(p,k) / sum_{p in I} S(p,k).
///
/// Stability is 1 when every significant product reappears in window k and
/// decreases by the significance share of each missing product. Computed
/// once, by kernel::CloseCurrentWindow (state_kernel.h), for the batch
/// model, the streaming scorer and the serving fleet alike.
struct StabilityPoint {
  int32_t window_index = 0;
  /// Stability_i^k in [0, 1].
  double stability = 1.0;
  /// False when the significance table was empty (window 0, or no purchase
  /// ever observed before this window). The paper's formula is 0/0 there;
  /// we define stability = 1 — "no evidence of change" — and flag it so
  /// evaluations can skip burn-in windows.
  bool has_history = false;
  /// Numerator sum_{p in u_k} S(p,k) and denominator sum_{p in I} S(p,k),
  /// kept for diagnostics and tests.
  double present_significance = 0.0;
  double total_significance = 0.0;
};

/// A customer's stability series plus per-window context.
struct StabilitySeries {
  std::vector<StabilityPoint> points;

  size_t size() const { return points.size(); }
  double StabilityAt(size_t window) const {
    return points.at(window).stability;
  }
};

}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_CORE_STABILITY_H_
