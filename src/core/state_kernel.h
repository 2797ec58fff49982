#ifndef CHURNLAB_CORE_STATE_KERNEL_H_
#define CHURNLAB_CORE_STATE_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/macros.h"
#include "common/result.h"
#include "core/monitor.h"
#include "core/pow_cache.h"
#include "obs/metrics.h"
#include "retail/types.h"

namespace churnlab {
namespace core {

/// \brief Storage-agnostic streaming kernels behind SignificanceTracker,
/// OnlineStabilityScorer, and StabilityMonitor.
///
/// The math of the three classes is written once here as templates over a
/// *state* parameter, so the exact same code runs against two state types:
///
///  - the core classes' member structs: each class's nested `State` struct
///    of plain members and std::vectors (one monitor per customer, as in
///    the batch model and the tests' per-customer oracles);
///  - the serving layer's slot ref: a view of one customer's slot record
///    (scalars plus handles of arena-backed blocks) in a shard
///    (serve/state_store.cc).
///
/// Identical code paths is what makes the two byte-identical — in emitted
/// alerts and in serialized state — by construction rather than by
/// parallel maintenance.
///
/// State concepts (duck-typed; no formal `concept` so the refs stay
/// minimal):
///
///  TrackerState — WindowsSeen()/NumSeen()/IncrementalTotal()/EwmaTotal()
///    scalar refs; ContainCounts()/ContainHistogram()/EwmaValues()/
///    EwmaStamps() spans; GrowContainCounts(n)/GrowContainHistogram(n)
///    zero-filling growth returning the fresh span; GrowEwma(n) growing
///    both EWMA arrays; ClearTracker() resetting everything to
///    freshly-constructed state. Growth invalidates only the grown span.
///
///  ScorerState — CurrentSymbols() span (sorted + deduplicated);
///    InsertCurrentSymbol(pos, s)/AppendCurrentSymbol(s)/
///    ReserveCurrentSymbols(n)/ClearCurrentSymbols(); CurrentWindow()/
///    LastObservedDay() scalar refs.
///
///  MonitorState — LastStability()/HasPrevious()/LowStreak() scalar refs
///    (HasPrevious is uint8_t: 0 or 1).
namespace kernel {

/// Shared observability hooks, defined in online_scorer.cc / monitor.cc so
/// both state types feed the same metric families.
void RecordEmittedWindows(size_t count);
obs::Counter* ObservationsCounter();
obs::Histogram* ObserveLatencyHistogram();
void RecordAlert(StabilityAlert::Kind kind);

// ---------------------------------------------------------------------------
// SignificanceTracker kernels (see significance.h for the math).
// ---------------------------------------------------------------------------

/// True while no per-symbol exponent can exceed the clamp, i.e. while the
/// incremental total is exact.
inline bool IncrementalTotalExact(int32_t windows_seen,
                                  const SignificanceOptions& options) {
  return static_cast<double>(windows_seen) <= options.max_abs_exponent;
}

template <typename TrackerState>
double SignificanceOf(TrackerState& ts, const SignificanceOptions& options,
                      const PowCache& pows, Symbol symbol) {
  if (options.kind == SignificanceKind::kEwma) {
    const std::span<const double> values = ts.EwmaValues();
    if (static_cast<size_t>(symbol) >= values.size()) return 0.0;
    const double value = values[symbol];
    if (value == 0.0) return 0.0;
    return value * pows.PowLambda(ts.WindowsSeen() - ts.EwmaStamps()[symbol]);
  }
  const std::span<const int32_t> counts = ts.ContainCounts();
  if (static_cast<size_t>(symbol) >= counts.size()) return 0.0;
  const int32_t count = counts[symbol];
  if (count == 0) return 0.0;
  if (options.alpha == 1.0) return 1.0;
  return pows.PowAlpha(2 * static_cast<int64_t>(count) - ts.WindowsSeen());
}

template <typename TrackerState>
int32_t ContainCount(TrackerState& ts, Symbol symbol) {
  const std::span<const int32_t> counts = ts.ContainCounts();
  if (static_cast<size_t>(symbol) >= counts.size()) return 0;
  return counts[symbol];
}

template <typename TrackerState>
int32_t MissCount(TrackerState& ts, Symbol symbol) {
  const int32_t count = ContainCount(ts, symbol);
  if (count == 0) return 0;
  return ts.WindowsSeen() - count;
}

/// Exact total in the clamped regime: sums ClampedPow per distinct contain
/// count, weighted by the histogram.
template <typename TrackerState>
double HistogramTotal(TrackerState& ts, const PowCache& pows) {
  const std::span<const uint32_t> histogram = ts.ContainHistogram();
  const int32_t windows_seen = ts.WindowsSeen();
  double total = 0.0;
  for (size_t count = 1; count < histogram.size(); ++count) {
    const uint32_t symbols = histogram[count];
    if (symbols == 0) continue;
    total += static_cast<double>(symbols) *
             pows.PowAlpha(2 * static_cast<int64_t>(count) - windows_seen);
  }
  return total;
}

template <typename TrackerState>
double TotalSignificance(TrackerState& ts, const SignificanceOptions& options,
                         const PowCache& pows) {
  if (options.kind == SignificanceKind::kEwma) return ts.EwmaTotal();
  if (ts.NumSeen() == 0) return 0.0;
  if (options.alpha == 1.0) return static_cast<double>(ts.NumSeen());
  if (IncrementalTotalExact(ts.WindowsSeen(), options)) {
    return ts.IncrementalTotal();
  }
  return HistogramTotal(ts, pows);
}

template <typename TrackerState>
double PresentSignificance(TrackerState& ts,
                           const SignificanceOptions& options,
                           const PowCache& pows,
                           std::span<const Symbol> symbols) {
  double present = 0.0;
  const Symbol* previous = nullptr;  // tolerate duplicate neighbours
  for (const Symbol& symbol : symbols) {
    if (previous != nullptr && *previous == symbol) continue;
    present += SignificanceOf(ts, options, pows, symbol);
    previous = &symbol;
  }
  return present;
}

template <typename TrackerState>
void AdvanceEwma(TrackerState& ts, const SignificanceOptions& options,
                 const PowCache& pows,
                 std::span<const Symbol> window_symbols) {
  const double lambda = options.ewma_lambda;
  const double credit = 1.0 - lambda;
  const int32_t next_window = ts.WindowsSeen() + 1;
  size_t present_count = 0;
  std::span<double> values = ts.EwmaValues();
  std::span<int32_t> stamps = ts.EwmaStamps();
  const Symbol* previous = nullptr;
  for (const Symbol& symbol : window_symbols) {
    if (previous != nullptr && *previous == symbol) continue;
    previous = &symbol;
    ++present_count;
    if (static_cast<size_t>(symbol) >= values.size()) {
      ts.GrowEwma(static_cast<size_t>(symbol) + 1);
      values = ts.EwmaValues();
      stamps = ts.EwmaStamps();
    }
    // Settle the lazy decay up to the post-advance window, then credit.
    values[symbol] =
        values[symbol] * pows.PowLambda(next_window - stamps[symbol]) +
        credit;
    stamps[symbol] = next_window;
  }
  ts.EwmaTotal() = ts.EwmaTotal() * lambda +
                   credit * static_cast<double>(present_count);
}

template <typename TrackerState>
void AdvanceWindow(TrackerState& ts, const SignificanceOptions& options,
                   const PowCache& pows,
                   std::span<const Symbol> window_symbols) {
  if (options.kind == SignificanceKind::kEwma) {
    AdvanceEwma(ts, options, pows, window_symbols);
  }
  const int32_t windows_seen = ts.WindowsSeen();
  // The incremental total is only maintained while it stays exact (and only
  // needed for the alpha-power kind with alpha != 1).
  const bool maintain_total =
      options.kind == SignificanceKind::kAlphaPower && options.alpha != 1.0 &&
      static_cast<double>(windows_seen) + 1.0 <= options.max_abs_exponent;
  double present = 0.0;
  size_t new_symbols = 0;
  std::span<int32_t> counts = ts.ContainCounts();
  std::span<uint32_t> histogram = ts.ContainHistogram();
  // Input is sorted (the scorer's window union); skip duplicate neighbours
  // so a malformed caller cannot make c(k) exceed the window count.
  const Symbol* previous = nullptr;
  for (const Symbol& symbol : window_symbols) {
    if (previous != nullptr && *previous == symbol) continue;
    previous = &symbol;
    if (static_cast<size_t>(symbol) >= counts.size()) {
      counts = ts.GrowContainCounts(static_cast<size_t>(symbol) + 1);
    }
    int32_t& count = counts[symbol];
    if (count == 0) {
      ++new_symbols;
      ++ts.NumSeen();
    } else {
      if (maintain_total) {
        present +=
            pows.PowAlpha(2 * static_cast<int64_t>(count) - windows_seen);
      }
      --histogram[static_cast<size_t>(count)];
    }
    ++count;
    if (static_cast<size_t>(count) >= histogram.size()) {
      histogram = ts.GrowContainHistogram(static_cast<size_t>(count) + 1);
    }
    ++histogram[static_cast<size_t>(count)];
  }
  if (maintain_total) {
    const double alpha = options.alpha;
    // T_{k+1} = (T_k + (alpha^2 - 1) * P_k) / alpha + n_new * alpha^(1-k).
    ts.IncrementalTotal() =
        (ts.IncrementalTotal() + (alpha * alpha - 1.0) * present) / alpha +
        static_cast<double>(new_symbols) * pows.PowAlpha(1 - windows_seen);
  }
  ++ts.WindowsSeen();
}

template <typename TrackerState>
void TrackerSaveState(TrackerState& ts, BinaryWriter* writer) {
  writer->WriteVarint(static_cast<uint64_t>(ts.WindowsSeen()));
  // Sparse contain counts as (symbol delta, count) pairs, ascending symbol.
  writer->WriteVarint(static_cast<uint64_t>(ts.NumSeen()));
  const std::span<const int32_t> counts = ts.ContainCounts();
  Symbol previous = 0;
  for (size_t symbol = 0; symbol < counts.size(); ++symbol) {
    const int32_t count = counts[symbol];
    if (count == 0) continue;
    writer->WriteVarint(static_cast<Symbol>(symbol) - previous);
    writer->WriteVarint(static_cast<uint64_t>(count));
    previous = static_cast<Symbol>(symbol);
  }
  writer->WriteDouble(ts.IncrementalTotal());
  // Sparse EWMA scores (value, stamp) keyed the same way. Empty for the
  // alpha-power kind.
  const std::span<const double> values = ts.EwmaValues();
  const std::span<const int32_t> stamps = ts.EwmaStamps();
  size_t num_ewma = 0;
  for (const double value : values) {
    if (value != 0.0) ++num_ewma;
  }
  writer->WriteVarint(num_ewma);
  previous = 0;
  for (size_t symbol = 0; symbol < values.size(); ++symbol) {
    if (values[symbol] == 0.0) continue;
    writer->WriteVarint(static_cast<Symbol>(symbol) - previous);
    writer->WriteDouble(values[symbol]);
    writer->WriteVarint(static_cast<uint64_t>(stamps[symbol]));
    previous = static_cast<Symbol>(symbol);
  }
  writer->WriteDouble(ts.EwmaTotal());
}

template <typename TrackerState>
Status TrackerLoadState(TrackerState& ts, BinaryReader* reader) {
  // Caps on untrusted state values. Symbols index dense vectors, so a
  // corrupted delta chain must not be allowed to size a multi-gigabyte
  // resize: 2^24 symbols is far beyond any retail taxonomy. Likewise the
  // contain histogram is indexed by per-symbol window counts, bounded by
  // windows_seen: 2^20 windows is centuries of daily windows.
  constexpr uint64_t kMaxSymbolSpace = uint64_t{1} << 24;
  constexpr uint64_t kMaxWindowsSeen = uint64_t{1} << 20;
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t windows_seen, reader->ReadVarint());
  if (windows_seen > kMaxWindowsSeen) {
    return Status::InvalidArgument(
        "significance state windows_seen is implausibly large");
  }
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t num_seen, reader->ReadVarint());
  ts.ClearTracker();
  ts.WindowsSeen() = static_cast<int32_t>(windows_seen);
  std::span<int32_t> counts = ts.ContainCounts();
  std::span<uint32_t> histogram = ts.ContainHistogram();
  uint64_t symbol = 0;
  for (uint64_t i = 0; i < num_seen; ++i) {
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t delta, reader->ReadVarint());
    // The first pair carries the absolute symbol; later pairs are deltas
    // from the previous one (strictly positive by construction).
    symbol += delta;
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t count, reader->ReadVarint());
    if (symbol >= static_cast<uint64_t>(kInvalidSymbol) || count == 0 ||
        count > windows_seen) {
      return Status::OutOfRange("corrupt significance state entry");
    }
    if (symbol >= kMaxSymbolSpace) {
      return Status::InvalidArgument(
          "significance state symbol is implausibly large");
    }
    if (symbol >= counts.size()) {
      counts = ts.GrowContainCounts(static_cast<size_t>(symbol) + 1);
    }
    counts[symbol] = static_cast<int32_t>(count);
    ++ts.NumSeen();
    if (count >= histogram.size()) {
      histogram = ts.GrowContainHistogram(static_cast<size_t>(count) + 1);
    }
    ++histogram[count];
  }
  CHURNLAB_ASSIGN_OR_RETURN(ts.IncrementalTotal(), reader->ReadDouble());

  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t num_ewma, reader->ReadVarint());
  std::span<double> values = ts.EwmaValues();
  std::span<int32_t> stamps = ts.EwmaStamps();
  symbol = 0;
  for (uint64_t i = 0; i < num_ewma; ++i) {
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t delta, reader->ReadVarint());
    symbol += delta;
    CHURNLAB_ASSIGN_OR_RETURN(const double value, reader->ReadDouble());
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t stamp, reader->ReadVarint());
    if (symbol >= static_cast<uint64_t>(kInvalidSymbol) ||
        stamp > windows_seen) {
      return Status::OutOfRange("corrupt EWMA state entry");
    }
    if (symbol >= kMaxSymbolSpace) {
      return Status::InvalidArgument(
          "EWMA state symbol is implausibly large");
    }
    if (symbol >= values.size()) {
      ts.GrowEwma(static_cast<size_t>(symbol) + 1);
      values = ts.EwmaValues();
      stamps = ts.EwmaStamps();
    }
    values[symbol] = value;
    stamps[symbol] = static_cast<int32_t>(stamp);
  }
  CHURNLAB_ASSIGN_OR_RETURN(ts.EwmaTotal(), reader->ReadDouble());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// OnlineStabilityScorer kernels (see online_scorer.h for the contract).
// ---------------------------------------------------------------------------

/// Emits the current window and starts the next one.
template <typename TrackerState, typename ScorerState>
StabilityPoint CloseCurrentWindow(TrackerState& ts, ScorerState& ss,
                                  const SignificanceOptions& significance,
                                  const PowCache& pows) {
  StabilityPoint point;
  point.window_index = ss.CurrentWindow();
  point.total_significance = TotalSignificance(ts, significance, pows);
  point.present_significance =
      PresentSignificance(ts, significance, pows, ss.CurrentSymbols());
  if (point.total_significance > 0.0) {
    point.has_history = true;
    point.stability = point.present_significance / point.total_significance;
  } else {
    point.has_history = false;
    point.stability = 1.0;
  }
  AdvanceWindow(ts, significance, pows, ss.CurrentSymbols());
  ss.ClearCurrentSymbols();
  ++ss.CurrentWindow();
  return point;
}

template <typename TrackerState, typename ScorerState>
Result<std::vector<StabilityPoint>> ScorerAdvanceTo(
    TrackerState& ts, ScorerState& ss,
    const OnlineStabilityScorer::Options& options, const PowCache& pows,
    retail::Day day) {
  if (day < options.origin_day) {
    return Status::InvalidArgument("day precedes the window origin");
  }
  if (day < ss.LastObservedDay()) {
    return Status::InvalidArgument(
        "stream is not chronological: day " + std::to_string(day) +
        " after day " + std::to_string(ss.LastObservedDay()));
  }
  ss.LastObservedDay() = day;
  const int32_t target_window =
      (day - options.origin_day) / options.window_span_days;
  std::vector<StabilityPoint> emitted;
  while (ss.CurrentWindow() < target_window) {
    emitted.push_back(
        CloseCurrentWindow(ts, ss, options.significance, pows));
  }
  RecordEmittedWindows(emitted.size());
  return emitted;
}

template <typename TrackerState, typename ScorerState>
Result<std::vector<StabilityPoint>> ScorerObserve(
    TrackerState& ts, ScorerState& ss,
    const OnlineStabilityScorer::Options& options, const PowCache& pows,
    retail::Day day, std::span<const Symbol> symbols) {
  obs::ScopedLatency latency(ObserveLatencyHistogram());
  CHURNLAB_ASSIGN_OR_RETURN(std::vector<StabilityPoint> emitted,
                            ScorerAdvanceTo(ts, ss, options, pows, day));
  // Merge the observation into the current window's sorted union.
  std::span<const Symbol> current = ss.CurrentSymbols();
  for (const Symbol symbol : symbols) {
    if (symbol == kInvalidSymbol) continue;
    const auto it =
        std::lower_bound(current.begin(), current.end(), symbol);
    if (it == current.end() || *it != symbol) {
      ss.InsertCurrentSymbol(static_cast<size_t>(it - current.begin()),
                             symbol);
      current = ss.CurrentSymbols();
    }
  }
  ObservationsCounter()->Increment();
  return emitted;
}

template <typename TrackerState, typename ScorerState>
Result<StabilityPoint> ScorerFinish(
    TrackerState& ts, ScorerState& ss,
    const OnlineStabilityScorer::Options& options, const PowCache& pows) {
  if (ss.LastObservedDay() < 0) {
    return Status::FailedPrecondition(
        "no observations were ever fed; window 0 would be vacuous");
  }
  // The next acceptable observation starts at the next window boundary.
  ss.LastObservedDay() =
      std::max(ss.LastObservedDay(),
               options.origin_day +
                   (ss.CurrentWindow() + 1) * options.window_span_days - 1);
  StabilityPoint point =
      CloseCurrentWindow(ts, ss, options.significance, pows);
  RecordEmittedWindows(1);
  return point;
}

template <typename TrackerState, typename ScorerState>
void ScorerSaveState(TrackerState& ts, ScorerState& ss,
                     BinaryWriter* writer) {
  TrackerSaveState(ts, writer);
  const std::span<const Symbol> current = ss.CurrentSymbols();
  writer->WriteVarint(current.size());
  Symbol previous = 0;
  for (const Symbol symbol : current) {  // sorted: delta-encode
    writer->WriteVarint(symbol - previous);
    previous = symbol;
  }
  writer->WriteSignedVarint(ss.CurrentWindow());
  writer->WriteSignedVarint(ss.LastObservedDay());
}

template <typename TrackerState, typename ScorerState>
Status ScorerLoadState(TrackerState& ts, ScorerState& ss,
                       BinaryReader* reader) {
  CHURNLAB_RETURN_NOT_OK(TrackerLoadState(ts, reader));
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t num_symbols, reader->ReadVarint());
  // Untrusted length prefix: each symbol takes at least one byte, so a
  // count beyond the remaining buffer is corruption — reject before
  // reserving storage sized from it.
  if (num_symbols > reader->remaining()) {
    return Status::InvalidArgument(
        "scorer symbol count exceeds remaining state bytes");
  }
  ss.ClearCurrentSymbols();
  ss.ReserveCurrentSymbols(num_symbols);
  uint64_t symbol = 0;
  for (uint64_t i = 0; i < num_symbols; ++i) {
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t delta, reader->ReadVarint());
    symbol += delta;
    if (symbol >= static_cast<uint64_t>(kInvalidSymbol)) {
      return Status::OutOfRange("corrupt scorer symbol set");
    }
    ss.AppendCurrentSymbol(static_cast<Symbol>(symbol));
  }
  CHURNLAB_ASSIGN_OR_RETURN(const int64_t current_window,
                            reader->ReadSignedVarint());
  CHURNLAB_ASSIGN_OR_RETURN(const int64_t last_observed_day,
                            reader->ReadSignedVarint());
  if (current_window < 0 || current_window > INT32_MAX ||
      last_observed_day < -1 || last_observed_day > INT32_MAX) {
    return Status::OutOfRange("corrupt scorer stream position");
  }
  ss.CurrentWindow() = static_cast<int32_t>(current_window);
  ss.LastObservedDay() = static_cast<retail::Day>(last_observed_day);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// StabilityMonitor kernels (see monitor.h for the policy semantics).
// ---------------------------------------------------------------------------

template <typename MonitorState>
std::vector<StabilityAlert> Evaluate(MonitorState& ms,
                                     const MonitorPolicy& policy,
                                     std::span<const StabilityPoint> points) {
  std::vector<StabilityAlert> alerts;
  for (const StabilityPoint& point : points) {
    const double drop =
        ms.HasPrevious() != 0 ? ms.LastStability() - point.stability : 0.0;
    const bool in_warmup = point.window_index < policy.warmup_windows;

    if (!in_warmup && point.has_history) {
      if (point.stability <= policy.beta) {
        ++ms.LowStreak();
      } else {
        ms.LowStreak() = 0;
      }
      if (ms.LowStreak() == policy.consecutive_windows) {
        StabilityAlert alert;
        alert.kind = StabilityAlert::Kind::kLowStability;
        alert.window_index = point.window_index;
        alert.stability = point.stability;
        alert.drop = drop;
        RecordAlert(alert.kind);
        alerts.push_back(alert);
        // Re-arm only after recovery: keep the streak saturated so a long
        // low spell raises exactly one alert.
      }
      if (ms.LowStreak() > policy.consecutive_windows) {
        ms.LowStreak() = policy.consecutive_windows;  // saturate
      }
      if (policy.drop_threshold <= 1.0 && ms.HasPrevious() != 0 &&
          drop > policy.drop_threshold) {
        StabilityAlert alert;
        alert.kind = StabilityAlert::Kind::kSharpDrop;
        alert.window_index = point.window_index;
        alert.stability = point.stability;
        alert.drop = drop;
        RecordAlert(alert.kind);
        alerts.push_back(alert);
      }
    }
    ms.LastStability() = point.stability;
    ms.HasPrevious() = 1;
  }
  return alerts;
}

template <typename TrackerState, typename ScorerState, typename MonitorState>
Result<std::vector<StabilityAlert>> MonitorObserve(
    TrackerState& ts, ScorerState& ss, MonitorState& ms,
    const OnlineStabilityScorer::Options& options,
    const MonitorPolicy& policy, const PowCache& pows, retail::Day day,
    std::span<const Symbol> symbols) {
  CHURNLAB_ASSIGN_OR_RETURN(
      const std::vector<StabilityPoint> points,
      ScorerObserve(ts, ss, options, pows, day, symbols));
  return Evaluate(ms, policy, std::span<const StabilityPoint>(points));
}

template <typename TrackerState, typename ScorerState, typename MonitorState>
Result<std::vector<StabilityAlert>> MonitorAdvanceTo(
    TrackerState& ts, ScorerState& ss, MonitorState& ms,
    const OnlineStabilityScorer::Options& options,
    const MonitorPolicy& policy, const PowCache& pows, retail::Day day) {
  CHURNLAB_ASSIGN_OR_RETURN(const std::vector<StabilityPoint> points,
                            ScorerAdvanceTo(ts, ss, options, pows, day));
  return Evaluate(ms, policy, std::span<const StabilityPoint>(points));
}

template <typename TrackerState, typename ScorerState, typename MonitorState>
Result<std::vector<StabilityAlert>> MonitorFinish(
    TrackerState& ts, ScorerState& ss, MonitorState& ms,
    const OnlineStabilityScorer::Options& options,
    const MonitorPolicy& policy, const PowCache& pows) {
  Result<StabilityPoint> point = ScorerFinish(ts, ss, options, pows);
  if (!point.ok()) {
    if (point.status().IsFailedPrecondition()) {
      // Never-fed monitor: nothing to flush, by contract a no-op.
      return std::vector<StabilityAlert>();
    }
    return point.status();
  }
  const StabilityPoint points[] = {*point};
  return Evaluate(ms, policy, std::span<const StabilityPoint>(points));
}

/// The monitor's own debounce fields, appended after the scorer state.
template <typename MonitorState>
void MonitorTailSaveState(MonitorState& ms, BinaryWriter* writer) {
  writer->WriteDouble(ms.LastStability());
  writer->WriteVarint(ms.HasPrevious() != 0 ? 1 : 0);
  writer->WriteVarint(static_cast<uint64_t>(ms.LowStreak()));
}

template <typename MonitorState>
Status MonitorTailLoadState(MonitorState& ms, const MonitorPolicy& policy,
                            BinaryReader* reader) {
  CHURNLAB_ASSIGN_OR_RETURN(ms.LastStability(), reader->ReadDouble());
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t has_previous, reader->ReadVarint());
  if (has_previous > 1) {
    return Status::OutOfRange("corrupt monitor debounce state");
  }
  ms.HasPrevious() = has_previous == 1 ? 1 : 0;
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t low_streak, reader->ReadVarint());
  if (low_streak > static_cast<uint64_t>(policy.consecutive_windows)) {
    return Status::OutOfRange("corrupt monitor debounce state");
  }
  ms.LowStreak() = static_cast<int32_t>(low_streak);
  return Status::OK();
}

template <typename TrackerState, typename ScorerState, typename MonitorState>
void MonitorSaveState(TrackerState& ts, ScorerState& ss, MonitorState& ms,
                      BinaryWriter* writer) {
  ScorerSaveState(ts, ss, writer);
  MonitorTailSaveState(ms, writer);
}

template <typename TrackerState, typename ScorerState, typename MonitorState>
Status MonitorLoadState(TrackerState& ts, ScorerState& ss, MonitorState& ms,
                        const MonitorPolicy& policy, BinaryReader* reader) {
  CHURNLAB_RETURN_NOT_OK(ScorerLoadState(ts, ss, reader));
  return MonitorTailLoadState(ms, policy, reader);
}

}  // namespace kernel
}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_CORE_STATE_KERNEL_H_
