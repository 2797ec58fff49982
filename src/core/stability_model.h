#ifndef CHURNLAB_CORE_STABILITY_MODEL_H_
#define CHURNLAB_CORE_STABILITY_MODEL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/explanation.h"
#include "core/score_matrix.h"
#include "core/significance.h"
#include "core/stability.h"
#include "core/symbol_mapper.h"
#include "retail/dataset.h"
#include "retail/types.h"

namespace churnlab {
namespace core {

/// Configuration of the end-to-end stability model.
struct StabilityModelOptions {
  /// alpha and the exponent clamp (paper: alpha = 2).
  SignificanceOptions significance;
  /// Window span in months (paper: 2). Windows are anchored at day 0 of the
  /// observation period for all customers.
  int32_t window_span_months = 2;
  /// Observe raw products or taxonomy segments (paper: segments).
  retail::Granularity granularity = retail::Granularity::kSegment;
  /// Number of windows to score. Negative = cover the whole dataset.
  int32_t num_windows = -1;
  /// Worker threads for per-customer scoring (1 = sequential).
  size_t num_threads = 1;
  /// Explanation depth for AnalyzeCustomer.
  ExplanationOptions explanation;
};

/// Explanation of one window of one customer with names resolved.
struct NamedMissingProduct {
  std::string name;
  double significance = 0.0;
  double significance_share = 0.0;
  bool newly_missing = false;
};

struct CustomerWindowReport {
  int32_t window_index = 0;
  int32_t begin_month = 0;
  int32_t end_month = 0;  // exclusive
  double stability = 1.0;
  double drop_from_previous = 0.0;
  size_t num_receipts = 0;
  size_t basket_union_size = 0;
  std::vector<NamedMissingProduct> missing;
};

/// Full per-customer analysis: the Figure-2 view of the paper.
struct CustomerReport {
  retail::CustomerId customer = retail::kInvalidCustomer;
  std::vector<CustomerWindowReport> windows;

  /// Multi-line rendering: one row per window with stability and the
  /// newly-missing significant products annotated.
  std::string ToString() const;
};

/// One product's standing in a customer's significance table at a given
/// window — the paper's "characterization of significant products"
/// (conclusion / future work), made queryable.
struct SignificantProduct {
  std::string name;
  Symbol symbol = kInvalidSymbol;
  /// Windows before the profiled window containing / missing the product.
  int32_t contain_count = 0;
  int32_t miss_count = 0;
  double significance = 0.0;
  /// significance / total significance at that window.
  double significance_share = 0.0;
  /// Whether the product was bought in the profiled window itself.
  bool present_in_window = false;
};

/// A customer's ranked significance table at one window.
struct SignificanceProfile {
  retail::CustomerId customer = retail::kInvalidCustomer;
  int32_t window_index = 0;
  double total_significance = 0.0;
  /// Products with c > 0, most significant first.
  std::vector<SignificantProduct> products;
};

/// \brief Facade over windowing + significance + stability + explanation:
/// score whole datasets and analyze individual customers.
///
/// Every method replays each customer's receipts through an
/// OnlineStabilityScorer, so batch scores are the streaming kernel's by
/// construction.
///
/// \code
///   StabilityModelOptions options;
///   options.significance.alpha = 2.0;
///   options.window_span_months = 2;
///   CHURNLAB_ASSIGN_OR_RETURN(auto model, StabilityModel::Make(options));
///   CHURNLAB_ASSIGN_OR_RETURN(ScoreMatrix scores,
///                             model.ScoreDataset(dataset));
/// \endcode
class StabilityModel {
 public:
  /// Validates options.
  static Result<StabilityModel> Make(StabilityModelOptions options);

  /// Number of windows the model materialises for `dataset` (respects
  /// options.num_windows when set).
  int32_t NumWindowsFor(const retail::Dataset& dataset) const;

  /// Computes the stability of every customer at every window. Higher score
  /// = more stable = more loyal. Requires a finalized dataset.
  Result<ScoreMatrix> ScoreDataset(const retail::Dataset& dataset) const;

  /// Stability series of a single customer.
  Result<StabilitySeries> ScoreCustomer(const retail::Dataset& dataset,
                                        retail::CustomerId customer) const;

  /// Full per-window report with product-loss explanations for one
  /// customer (section 3.2 of the paper).
  Result<CustomerReport> AnalyzeCustomer(const retail::Dataset& dataset,
                                         retail::CustomerId customer) const;

  /// The customer's significance table as seen by window `window` (counts
  /// over windows 0..window-1), ranked by significance. `window` defaults
  /// to the final window when negative.
  Result<SignificanceProfile> ProfileCustomer(const retail::Dataset& dataset,
                                              retail::CustomerId customer,
                                              int32_t window = -1) const;

  const StabilityModelOptions& options() const { return options_; }

 private:
  explicit StabilityModel(StabilityModelOptions options)
      : options_(options) {}

  StabilityModelOptions options_;
};

}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_CORE_STABILITY_MODEL_H_
