#include "core/stability_model.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/online_scorer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace churnlab {
namespace core {

namespace {

/// Everything a customer replay needs, resolved once per dataset.
struct Replayer {
  OnlineStabilityScorer fresh_scorer;  // origin day 0
  SymbolMapper mapper;
  retail::Day span_days = 0;
  /// End of the scored range [0, num_windows * span_days).
  retail::Day horizon = 0;

  /// The one per-customer replay behind every StabilityModel method. Feeds
  /// the chronological `receipts` (days >= 0, as a store holds them),
  /// mapped to symbols, into a copy of `fresh_scorer`, ignoring receipts at
  /// or past `horizon`, and closes the windows one at a time with
  /// AdvanceTo, ending at AdvanceTo(horizon).
  ///
  /// Just before window k closes, `before_close(scorer, num_receipts)`
  /// runs with window k's full symbol union in `scorer` and the number of
  /// receipts that fell into it; returning false stops the replay there,
  /// window k still open. Returns the points of the closed windows.
  template <typename BeforeClose>
  Result<StabilitySeries> Run(std::span<const retail::Receipt> receipts,
                              BeforeClose&& before_close) const {
    OnlineStabilityScorer scorer = fresh_scorer;
    StabilitySeries series;
    series.points.reserve(static_cast<size_t>(horizon / span_days));
    size_t window_receipts = 0;
    // Closes every window before the one containing `day`; false = stopped.
    const auto close_before = [&](retail::Day day) -> Result<bool> {
      while (scorer.current_window() < day / span_days) {
        if (!before_close(scorer, window_receipts)) return false;
        CHURNLAB_ASSIGN_OR_RETURN(
            const std::vector<StabilityPoint> closed,
            scorer.AdvanceTo((scorer.current_window() + 1) * span_days));
        series.points.insert(series.points.end(), closed.begin(),
                             closed.end());
        window_receipts = 0;
      }
      return true;
    };
    std::vector<Symbol> symbols;
    for (const retail::Receipt& receipt : receipts) {
      if (receipt.day >= horizon) continue;
      CHURNLAB_ASSIGN_OR_RETURN(const bool open, close_before(receipt.day));
      if (!open) return series;
      symbols.clear();
      for (const retail::ItemId item : receipt.items) {
        symbols.push_back(mapper.Map(item));
      }
      CHURNLAB_RETURN_NOT_OK(scorer.Observe(receipt.day, symbols).status());
      ++window_receipts;
    }
    CHURNLAB_RETURN_NOT_OK(close_before(horizon).status());
    return series;
  }
};

Result<Replayer> MakeReplayer(const StabilityModelOptions& options,
                              const retail::Dataset& dataset,
                              int32_t num_windows) {
  if (!dataset.store().finalized()) {
    return Status::InvalidArgument("dataset store is not finalized");
  }
  OnlineStabilityScorer::Options scorer_options;
  scorer_options.significance = options.significance;
  scorer_options.window_span_days =
      options.window_span_months * retail::kDaysPerMonth;
  const int64_t horizon =
      static_cast<int64_t>(num_windows) * scorer_options.window_span_days;
  if (horizon > std::numeric_limits<retail::Day>::max()) {
    return Status::OutOfRange(std::to_string(num_windows) + " windows of " +
                              std::to_string(scorer_options.window_span_days) +
                              " days overflow the day range");
  }
  CHURNLAB_ASSIGN_OR_RETURN(OnlineStabilityScorer fresh_scorer,
                            OnlineStabilityScorer::Make(scorer_options));
  CHURNLAB_ASSIGN_OR_RETURN(
      SymbolMapper mapper,
      SymbolMapper::Make(options.granularity, &dataset.taxonomy()));
  return Replayer{std::move(fresh_scorer), mapper,
                  scorer_options.window_span_days,
                  static_cast<retail::Day>(horizon)};
}

/// A customer's receipts; NotFound when there are none.
Result<std::span<const retail::Receipt>> HistoryOf(
    const retail::Dataset& dataset, retail::CustomerId customer) {
  const std::span<const retail::Receipt> receipts =
      dataset.store().History(customer);
  if (receipts.empty()) {
    return Status::NotFound("customer " + std::to_string(customer) +
                            " has no receipts");
  }
  return receipts;
}

bool KeepGoing(const OnlineStabilityScorer&, size_t) { return true; }

}  // namespace

std::string CustomerReport::ToString() const {
  std::ostringstream out;
  out << "customer " << customer << "\n";
  out << "window  months   stability  drop     receipts  lost products\n";
  for (const CustomerWindowReport& window : windows) {
    out << "  " << window.window_index << "\t[" << window.begin_month << ","
        << window.end_month << ")\t" << FormatDouble(window.stability, 3)
        << "\t" << FormatDouble(window.drop_from_previous, 3) << "\t"
        << window.num_receipts << "\t";
    bool first = true;
    for (const NamedMissingProduct& missing : window.missing) {
      if (!missing.newly_missing) continue;
      if (!first) out << ", ";
      out << missing.name << " (share "
          << FormatDouble(missing.significance_share, 3) << ")";
      first = false;
    }
    out << "\n";
  }
  return out.str();
}

Result<StabilityModel> StabilityModel::Make(StabilityModelOptions options) {
  if (options.window_span_months <= 0) {
    return Status::InvalidArgument("window_span_months must be positive");
  }
  if (options.window_span_months >
      std::numeric_limits<retail::Day>::max() / retail::kDaysPerMonth) {
    return Status::InvalidArgument(
        "window_span_months " + std::to_string(options.window_span_months) +
        " overflows the day range");
  }
  // Surface bad significance options eagerly.
  OnlineStabilityScorer::Options scorer_options;
  scorer_options.significance = options.significance;
  CHURNLAB_RETURN_NOT_OK(OnlineStabilityScorer::Make(scorer_options).status());
  if (options.num_threads == 0) options.num_threads = 1;
  return StabilityModel(options);
}

int32_t StabilityModel::NumWindowsFor(const retail::Dataset& dataset) const {
  if (options_.num_windows >= 0) return options_.num_windows;
  const retail::Day span_days =
      options_.window_span_months * retail::kDaysPerMonth;
  const retail::Day last_day = dataset.store().max_day();
  if (last_day < 0) return 0;
  return last_day / span_days + 1;
}

Result<ScoreMatrix> StabilityModel::ScoreDataset(
    const retail::Dataset& dataset) const {
  CHURNLAB_SPAN("core.score_dataset");
  const int32_t num_windows = NumWindowsFor(dataset);
  CHURNLAB_ASSIGN_OR_RETURN(const Replayer replayer,
                            MakeReplayer(options_, dataset, num_windows));

  const std::vector<retail::CustomerId>& customers =
      dataset.store().Customers();
  ScoreMatrix matrix(customers, num_windows);

  static obs::Counter* const customers_scored =
      obs::MetricsRegistry::Global().GetCounter(
          "churnlab.core.customers_scored");
  static obs::Gauge* const windows_per_sec =
      obs::MetricsRegistry::Global().GetGauge(
          "churnlab.core.windows_per_sec");
  static obs::Histogram* const score_customer_us =
      obs::MetricsRegistry::Global().GetHistogram(
          "churnlab.core.score_customer_us",
          obs::HistogramOptions::ExponentialLatency());

  const auto score_one = [&](size_t row) {
    CHURNLAB_SPAN("core.score_customer");
    obs::ScopedLatency latency(score_customer_us);
    // A finalized store's histories are chronological with days >= 0, so
    // the replay cannot fail.
    const StabilitySeries series =
        replayer.Run(dataset.store().History(customers[row]), KeepGoing)
            .ValueOrDie();
    double* out = matrix.Row(row);
    for (size_t k = 0; k < series.points.size(); ++k) {
      out[k] = series.points[k].stability;
    }
  };

  Stopwatch stopwatch;
  ParallelFor(0, customers.size(), options_.num_threads, score_one);
  const double elapsed_s = stopwatch.ElapsedSeconds();
  customers_scored->Increment(customers.size());
  if (elapsed_s > 0.0) {
    windows_per_sec->Set(
        static_cast<double>(customers.size()) * num_windows / elapsed_s);
  }
  return matrix;
}

Result<StabilitySeries> StabilityModel::ScoreCustomer(
    const retail::Dataset& dataset, retail::CustomerId customer) const {
  CHURNLAB_SPAN("core.score_customer");
  CHURNLAB_ASSIGN_OR_RETURN(
      const Replayer replayer,
      MakeReplayer(options_, dataset, NumWindowsFor(dataset)));
  CHURNLAB_ASSIGN_OR_RETURN(const auto receipts, HistoryOf(dataset, customer));
  return replayer.Run(receipts, KeepGoing);
}

Result<CustomerReport> StabilityModel::AnalyzeCustomer(
    const retail::Dataset& dataset, retail::CustomerId customer) const {
  CHURNLAB_ASSIGN_OR_RETURN(
      const Replayer replayer,
      MakeReplayer(options_, dataset, NumWindowsFor(dataset)));
  CHURNLAB_ASSIGN_OR_RETURN(const auto receipts, HistoryOf(dataset, customer));

  const ExplanationEngine engine(options_.explanation);
  CustomerReport report;
  report.customer = customer;
  std::vector<Symbol> previous;
  const auto explain_window = [&](const OnlineStabilityScorer& scorer,
                                  size_t num_receipts) {
    const std::span<const Symbol> window = scorer.current_symbols();
    const WindowExplanation explanation =
        engine.Explain(scorer.tracker(), window, previous);
    previous.assign(window.begin(), window.end());

    CustomerWindowReport window_report;
    window_report.window_index = explanation.window_index;
    const retail::Day begin_day = explanation.window_index * replayer.span_days;
    window_report.begin_month = retail::DayToMonth(begin_day);
    window_report.end_month =
        retail::DayToMonth(begin_day + replayer.span_days - 1) + 1;
    window_report.num_receipts = num_receipts;
    window_report.basket_union_size = window.size();
    for (const MissingSymbol& missing : explanation.missing) {
      NamedMissingProduct named;
      named.name = replayer.mapper.SymbolName(missing.symbol, dataset.items());
      named.significance = missing.significance;
      named.significance_share = missing.significance_share;
      named.newly_missing = missing.newly_missing;
      window_report.missing.push_back(std::move(named));
    }
    report.windows.push_back(std::move(window_report));
    return true;
  };
  CHURNLAB_ASSIGN_OR_RETURN(const StabilitySeries series,
                            replayer.Run(receipts, explain_window));

  // Stitch in stability values and drops now that the series is complete.
  for (size_t k = 0; k < report.windows.size(); ++k) {
    report.windows[k].stability = series.points[k].stability;
    report.windows[k].drop_from_previous =
        k == 0 ? 0.0
               : series.points[k - 1].stability - series.points[k].stability;
  }
  return report;
}

Result<SignificanceProfile> StabilityModel::ProfileCustomer(
    const retail::Dataset& dataset, retail::CustomerId customer,
    int32_t window) const {
  const int32_t num_windows = NumWindowsFor(dataset);
  CHURNLAB_ASSIGN_OR_RETURN(const Replayer replayer,
                            MakeReplayer(options_, dataset, num_windows));
  CHURNLAB_ASSIGN_OR_RETURN(const auto receipts, HistoryOf(dataset, customer));
  if (window < 0) window = num_windows - 1;
  if (window < 0 || window >= num_windows) {
    return Status::OutOfRange("window " + std::to_string(window) +
                              " outside [0, " + std::to_string(num_windows) +
                              ")");
  }

  SignificanceProfile profile;
  profile.customer = customer;
  profile.window_index = window;
  // Replay up to the profiled window and read the table before it closes.
  const auto read_profile = [&](const OnlineStabilityScorer& scorer, size_t) {
    if (scorer.current_window() < window) return true;
    const SignificanceTracker& tracker = scorer.tracker();
    const std::span<const Symbol> profiled = scorer.current_symbols();
    profile.total_significance = tracker.TotalSignificance();
    for (const Symbol symbol : tracker.SeenSymbols()) {
      SignificantProduct product;
      product.symbol = symbol;
      product.name = replayer.mapper.SymbolName(symbol, dataset.items());
      product.contain_count = tracker.ContainCount(symbol);
      product.miss_count = tracker.MissCount(symbol);
      product.significance = tracker.SignificanceOf(symbol);
      product.significance_share =
          profile.total_significance > 0.0
              ? product.significance / profile.total_significance
              : 0.0;
      product.present_in_window =
          std::binary_search(profiled.begin(), profiled.end(), symbol);
      profile.products.push_back(std::move(product));
    }
    return false;
  };
  CHURNLAB_RETURN_NOT_OK(replayer.Run(receipts, read_profile).status());
  std::stable_sort(profile.products.begin(), profile.products.end(),
                   [](const SignificantProduct& a,
                      const SignificantProduct& b) {
                     return a.significance > b.significance;
                   });
  return profile;
}

}  // namespace core
}  // namespace churnlab
