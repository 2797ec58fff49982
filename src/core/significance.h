#ifndef CHURNLAB_CORE_SIGNIFICANCE_H_
#define CHURNLAB_CORE_SIGNIFICANCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "core/pow_cache.h"
#include "core/symbol_mapper.h"

namespace churnlab {
namespace core {

/// Which significance weighting to use.
enum class SignificanceKind : uint8_t {
  /// The paper's S(p,k) = alpha^(c(k) - l(k)).
  kAlphaPower = 0,
  /// Exponentially-weighted moving average of window presence:
  /// s_k = lambda * s_{k-1} + (1 - lambda) * [p in u_{k-1}], s in (0, 1].
  /// An extension for the ablation study: recent windows dominate, old
  /// history is forgotten at a fixed rate rather than the paper's
  /// count-difference rule.
  kEwma = 1,
};

/// Parameters of the significance weighting S(p,k) = alpha^(c(k) - l(k)).
struct SignificanceOptions {
  SignificanceKind kind = SignificanceKind::kAlphaPower;
  /// The paper's alpha. Must be > 0; the usual regime is alpha > 1 so that
  /// repeated purchases increase significance. The paper's experiments use
  /// alpha = 2 (chosen by 5-fold cross-validation).
  double alpha = 2.0;
  /// |c - l| is clamped to this bound before exponentiation so significance
  /// stays finite for arbitrarily long histories. 500 is far beyond the
  /// paper's 14-window horizon and exact for it.
  double max_abs_exponent = 500.0;
  /// Memory of the kEwma variant, in (0, 1). Larger = longer memory.
  double ewma_lambda = 0.7;
};

/// \brief Incremental per-customer significance table (section 2 of the
/// paper).
///
/// For item p at window k, let c(k) = number of windows *before* k
/// containing p and l(k) = number of windows before k not containing p.
/// Since every prior window either contains p or not, c(k) + l(k) = k, so
/// the tracker stores only c(k) per symbol and the current window count.
/// The significance is
///
///   S(p,k) = alpha^(c(k) - l(k)) = alpha^(2*c(k) - k)   if c(k) > 0
///   S(p,k) = 0                                           otherwise.
///
/// The denominator of the stability formula, T_k = sum_{p in I} S(p,k), is
/// maintained incrementally from the algebraic identity
///
///   T_{k+1} = (T_k + (alpha^2 - 1) * sum_{p in u_k, c>0} S(p,k)) / alpha
///             + |{p in u_k : c = 0}| * alpha^(1-k),
///
/// which follows from S(p,k) = alpha^(-k) * alpha^(2c(p)): advancing a
/// window divides every term by alpha and multiplies each term of a present
/// symbol by alpha^2. AdvanceWindow therefore costs O(|u_k|) and
/// TotalSignificance() is O(1) — a full customer series costs O(total
/// purchases) instead of O(windows x seen catalogue).
///
/// Clamp caveat: the identity above is the *unclamped* algebra. It is exact
/// as long as no per-symbol exponent can hit the max_abs_exponent clamp,
/// which is guaranteed while windows_seen() <= max_abs_exponent (the
/// exponent 2c - k is bounded by +-k). Beyond that horizon the tracker
/// falls back to an exact O(distinct contain-counts) summation over a
/// contain-count histogram — still independent of the catalogue size, and
/// unreachable in the paper's regime (14 windows vs the default clamp of
/// 500).
///
/// Per-symbol state lives in dense Symbol-indexed vectors (symbols are
/// dense ids produced by SymbolMapper), and alpha powers are served from a
/// memoised PowCache filled with the same ClampedPow the scan-based oracle
/// of the tests uses (tests/significance_reference.h), so per-symbol
/// significances agree with it bit-for-bit.
///
/// The math itself lives in the storage-agnostic kernels of
/// core/state_kernel.h, instantiated here over the nested State struct of
/// plain vectors; the serving layer instantiates the same kernels over its
/// slot-record/arena store, which keeps the two bit-identical.
///
/// Not thread-safe — including const accessors, which lazily extend the
/// memoised power tables. Use one tracker per thread.
///
/// Usage: for each window k in order, query significances (they reflect
/// windows 0..k-1), then call `AdvanceWindow(u_k)`.
class SignificanceTracker {
 public:
  /// Member storage behind the shared kernels: plain members plus the
  /// accessor surface the TrackerState concept expects (state_kernel.h).
  struct State {
    int32_t windows_seen = 0;
    /// Number of symbols with c > 0.
    uint32_t num_seen = 0;
    /// sum_p alpha^(2c(p) - k), maintained incrementally while the clamp
    /// cannot bite; stale (and unused) afterwards.
    double incremental_total = 0.0;
    /// kEwma: running total, via T_{k+1} = lambda * T_k + (1-lambda)*|u_k|.
    double ewma_total = 0.0;
    /// Dense per-symbol contain counts; index = symbol, 0 = never seen.
    std::vector<int32_t> contain_counts;
    /// contain_histogram[c] = number of symbols with contain count c
    /// (c >= 1). Drives the exact clamped-regime total. kAlphaPower only.
    std::vector<uint32_t> contain_histogram;
    /// kEwma: lazily-decayed scores. The score of symbol s at the current
    /// window k is ewma_values[s] * lambda^(k - ewma_stamps[s]), so
    /// AdvanceWindow only touches present symbols instead of decaying the
    /// whole table.
    std::vector<double> ewma_values;
    std::vector<int32_t> ewma_stamps;

    int32_t& WindowsSeen() { return windows_seen; }
    uint32_t& NumSeen() { return num_seen; }
    double& IncrementalTotal() { return incremental_total; }
    double& EwmaTotal() { return ewma_total; }
    std::span<int32_t> ContainCounts() {
      return {contain_counts.data(), contain_counts.size()};
    }
    std::span<int32_t> GrowContainCounts(size_t n) {
      contain_counts.resize(n, 0);
      return ContainCounts();
    }
    std::span<uint32_t> ContainHistogram() {
      return {contain_histogram.data(), contain_histogram.size()};
    }
    std::span<uint32_t> GrowContainHistogram(size_t n) {
      contain_histogram.resize(n, 0);
      return ContainHistogram();
    }
    std::span<double> EwmaValues() {
      return {ewma_values.data(), ewma_values.size()};
    }
    std::span<int32_t> EwmaStamps() {
      return {ewma_stamps.data(), ewma_stamps.size()};
    }
    void GrowEwma(size_t n) {
      ewma_values.resize(n, 0.0);
      ewma_stamps.resize(n, 0);
    }
    void ClearTracker() { *this = State(); }
  };

  explicit SignificanceTracker(SignificanceOptions options);

  /// Validates options (alpha > 0, max_abs_exponent >= 0).
  static Result<SignificanceTracker> Make(SignificanceOptions options);

  /// S(p, current window). Zero for never-seen symbols.
  double SignificanceOf(Symbol symbol) const;

  /// c(current window) for `symbol` — number of past windows containing it.
  int32_t ContainCount(Symbol symbol) const;

  /// l(current window) for `symbol`. Zero for never-seen symbols (their
  /// significance is 0 regardless).
  int32_t MissCount(Symbol symbol) const;

  /// Sum of S(p, current window) over every symbol in I. O(1) while the
  /// exponent clamp cannot bite (see class comment), O(distinct
  /// contain-counts) afterwards.
  double TotalSignificance() const;

  /// Sum of S(p, current window) over `symbols`, which must be sorted;
  /// duplicate neighbours are counted once. This is the stability
  /// numerator sum_{p in u_k} S(p,k).
  double PresentSignificance(const std::vector<Symbol>& symbols) const;

  /// All symbols with c > 0, ascending. (Stable ordering for reports.)
  std::vector<Symbol> SeenSymbols() const;

  /// Folds window k's symbol set into the counters, making the tracker
  /// reflect window k+1. `window_symbols` must be sorted and deduplicated
  /// (as kept by the streaming scorer).
  void AdvanceWindow(const std::vector<Symbol>& window_symbols);

  /// Number of windows folded in so far (the current k).
  int32_t windows_seen() const { return state_.windows_seen; }

  const SignificanceOptions& options() const { return options_; }

  /// Raw storage access for kernel instantiation by the streaming layers
  /// (OnlineStabilityScorer, the serving layer's equivalence tests).
  State& state() { return state_; }
  const State& state() const { return state_; }
  const PowCache& pows() const { return pows_; }

  /// Serializes the dynamic state (counters and running totals; *not* the
  /// options) to `writer`. Sparse encoding: only symbols with non-zero
  /// state are written, so the cost is O(distinct symbols seen), not
  /// O(symbol space). Floating-point accumulators are written as raw IEEE
  /// bytes, so a LoadState'd tracker continues bit-identically to the
  /// original.
  void SaveState(BinaryWriter* writer) const;

  /// Restores state written by SaveState into this tracker, replacing any
  /// current state. The tracker must have been constructed with the same
  /// options as the one that saved (the serving layer persists options in
  /// its snapshot header and enforces this).
  Status LoadState(BinaryReader* reader);

 private:
  /// Query kernels take a mutable state (the compact layout has no const
  /// refs); the heap members they touch never change on queries, and the
  /// power tables are mutable by design.
  State& MutableState() const {
    return const_cast<SignificanceTracker*>(this)->state_;
  }

  SignificanceOptions options_;
  State state_;
  PowCache pows_;
};

}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_CORE_SIGNIFICANCE_H_
