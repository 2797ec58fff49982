#ifndef CHURNLAB_CORE_ONLINE_SCORER_H_
#define CHURNLAB_CORE_ONLINE_SCORER_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/significance.h"
#include "core/stability.h"
#include "core/symbol_mapper.h"
#include "retail/types.h"

namespace churnlab {
namespace core {

/// \brief Streaming per-customer stability scorer.
///
/// OnlineStabilityScorer consumes a chronological stream of (day,
/// symbol-set) observations and emits one StabilityPoint per window as soon
/// as the window closes. It is the one scoring path: StabilityModel
/// replays each customer's history through it, production monitoring feeds
/// it receipts as they happen, and tests pit it against an independent
/// reference series.
///
/// The streaming logic lives in the shared kernels of
/// core/state_kernel.h, instantiated here over the nested State struct;
/// the serving layer's compact store instantiates the same kernels.
///
/// \code
///   OnlineStabilityScorer scorer =
///       OnlineStabilityScorer::Make(options).ValueOrDie();
///   for (const retail::Receipt& r : stream) {
///     for (const StabilityPoint& p : scorer.Observe(r.day, r.items)) {
///       alert_if_low(p);
///     }
///   }
///   auto tail = scorer.Finish();  // closes the in-progress window
///   if (tail.ok()) report(*tail);  // error when nothing was ever observed
/// \endcode
class OnlineStabilityScorer {
 public:
  struct Options {
    SignificanceOptions significance;
    /// Width of each window in days (> 0).
    retail::Day window_span_days = 2 * retail::kDaysPerMonth;
    /// Day at which window 0 begins (>= 0).
    retail::Day origin_day = 0;
  };

  /// Member storage behind the shared kernels: the ScorerState
  /// concept of state_kernel.h over plain members.
  struct State {
    std::vector<Symbol> current_symbols;  // kept sorted + deduplicated
    int32_t current_window = 0;
    retail::Day last_observed_day = -1;

    std::span<const Symbol> CurrentSymbols() const {
      return {current_symbols.data(), current_symbols.size()};
    }
    void InsertCurrentSymbol(size_t pos, Symbol symbol) {
      current_symbols.insert(
          current_symbols.begin() + static_cast<ptrdiff_t>(pos), symbol);
    }
    void AppendCurrentSymbol(Symbol symbol) {
      current_symbols.push_back(symbol);
    }
    void ReserveCurrentSymbols(size_t n) { current_symbols.reserve(n); }
    void ClearCurrentSymbols() { current_symbols.clear(); }
    int32_t& CurrentWindow() { return current_window; }
    retail::Day& LastObservedDay() { return last_observed_day; }
  };

  /// Validates the options.
  static Result<OnlineStabilityScorer> Make(Options options);

  /// Feeds one observation. `day` must be >= every previously observed day
  /// (chronological stream) and >= origin; violations return
  /// InvalidArgument and leave the scorer unchanged. Returns the stability
  /// points of every window that closed strictly before `day`'s window
  /// (empty vector when `day` falls into the current window).
  Result<std::vector<StabilityPoint>> Observe(
      retail::Day day, const std::vector<Symbol>& symbols);

  /// Closes every window up to but excluding the one containing `day`,
  /// without recording a purchase. Use for "no activity through day X"
  /// advancement. Same ordering rules as Observe.
  Result<std::vector<StabilityPoint>> AdvanceTo(retail::Day day);

  /// Closes the current window and returns its point (plus nothing else).
  /// The scorer can keep streaming afterwards; the next observation must
  /// belong to a later window. Returns FailedPrecondition when no
  /// observation was ever fed (via Observe or AdvanceTo): window 0 would be
  /// a vacuous all-defaults point, and emitting it used to silently skew
  /// downstream aggregations.
  Result<StabilityPoint> Finish();

  /// Index of the window currently being accumulated.
  int32_t current_window() const { return state_.current_window; }

  /// Number of windows already emitted.
  int32_t windows_emitted() const { return tracker_.windows_seen(); }

  /// Significance table as seen by the current window: S(p,k) over the
  /// windows already emitted.
  const SignificanceTracker& tracker() const { return tracker_; }

  /// Union of the symbols observed in the current window so far, sorted.
  std::span<const Symbol> current_symbols() const {
    return state_.CurrentSymbols();
  }

  /// Serializes the streaming state (tracker counters, the in-progress
  /// window's symbol union, stream position) so a restored scorer continues
  /// bit-identically. Options are not written; the caller persists them.
  void SaveState(BinaryWriter* writer) const;

  /// Restores state written by SaveState. The scorer must have been
  /// constructed with the same options as the saver.
  Status LoadState(BinaryReader* reader);

 private:
  explicit OnlineStabilityScorer(Options options)
      : options_(options), tracker_(options.significance) {}

  State& MutableState() const {
    return const_cast<OnlineStabilityScorer*>(this)->state_;
  }

  Options options_;
  SignificanceTracker tracker_;
  State state_;
};

}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_CORE_ONLINE_SCORER_H_
