// Model-level metamorphic properties: transformations of the input that
// must not (or must predictably) change the stability scores.

#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/stability.h"
#include "core/stability_model.h"
#include "datagen/scenario.h"
#include "window_stream.h"

namespace churnlab {
namespace core {
namespace {

retail::Dataset SimulateSmall(uint64_t seed) {
  datagen::PaperScenarioConfig config;
  config.population.num_loyal = 25;
  config.population.num_defecting = 25;
  config.seed = seed;
  return datagen::MakePaperDataset(config).ValueOrDie();
}

StabilityModelOptions Options() {
  StabilityModelOptions options;
  options.significance.alpha = 2.0;
  options.window_span_months = 2;
  return options;
}

// Copy a dataset receipt-by-receipt, applying `transform` to each receipt
// before appending; labels/taxonomy/dictionary are copied unchanged.
template <typename Fn>
retail::Dataset TransformDataset(const retail::Dataset& source,
                                 Fn&& transform) {
  retail::Dataset copy;
  copy.mutable_items() = source.items();
  copy.mutable_taxonomy() = source.taxonomy();
  for (const auto& [customer, label] : source.labels()) {
    copy.SetLabel(customer, label);
  }
  for (const retail::Receipt& receipt : source.store().AllReceipts()) {
    retail::Receipt transformed = receipt;
    transform(&transformed);
    EXPECT_TRUE(copy.mutable_store().Append(std::move(transformed)).ok());
  }
  copy.Finalize();
  return copy;
}

void ExpectSameScores(const retail::Dataset& a, const retail::Dataset& b) {
  const auto model = StabilityModel::Make(Options()).ValueOrDie();
  const auto scores_a = model.ScoreDataset(a).ValueOrDie();
  const auto scores_b = model.ScoreDataset(b).ValueOrDie();
  ASSERT_EQ(scores_a.num_rows(), scores_b.num_rows());
  ASSERT_EQ(scores_a.num_windows(), scores_b.num_windows());
  for (const retail::CustomerId customer : a.store().Customers()) {
    const size_t row_a = scores_a.RowOf(customer).ValueOrDie();
    const size_t row_b = scores_b.RowOf(customer).ValueOrDie();
    for (int32_t window = 0; window < scores_a.num_windows(); ++window) {
      ASSERT_DOUBLE_EQ(scores_a.At(row_a, window),
                       scores_b.At(row_b, window))
          << "customer " << customer << " window " << window;
    }
  }
}

TEST(ModelProperties, InsertionOrderIrrelevant) {
  const retail::Dataset original = SimulateSmall(1);
  // Rebuild with receipts appended in reverse order.
  retail::Dataset reversed;
  reversed.mutable_items() = original.items();
  reversed.mutable_taxonomy() = original.taxonomy();
  for (const auto& [customer, label] : original.labels()) {
    reversed.SetLabel(customer, label);
  }
  const auto receipts = original.store().AllReceipts();
  for (size_t i = receipts.size(); i > 0; --i) {
    ASSERT_TRUE(reversed.mutable_store().Append(receipts[i - 1]).ok());
  }
  reversed.Finalize();
  ExpectSameScores(original, reversed);
}

TEST(ModelProperties, DuplicateItemsWithinReceiptIrrelevant) {
  const retail::Dataset original = SimulateSmall(2);
  const retail::Dataset duplicated =
      TransformDataset(original, [](retail::Receipt* receipt) {
        const std::vector<retail::ItemId> items = receipt->items;
        receipt->items.insert(receipt->items.end(), items.begin(),
                              items.end());
      });
  ExpectSameScores(original, duplicated);
}

TEST(ModelProperties, SameDayReceiptSplitIrrelevant) {
  // Splitting a basket into two same-day receipts leaves window unions —
  // and therefore stability — unchanged.
  const retail::Dataset original = SimulateSmall(3);
  retail::Dataset split;
  split.mutable_items() = original.items();
  split.mutable_taxonomy() = original.taxonomy();
  for (const auto& [customer, label] : original.labels()) {
    split.SetLabel(customer, label);
  }
  for (const retail::Receipt& receipt : original.store().AllReceipts()) {
    if (receipt.items.size() >= 2) {
      retail::Receipt first = receipt;
      retail::Receipt second = receipt;
      const size_t half = receipt.items.size() / 2;
      first.items.assign(receipt.items.begin(),
                         receipt.items.begin() + half);
      second.items.assign(receipt.items.begin() + half,
                          receipt.items.end());
      first.spend /= 2.0;
      second.spend /= 2.0;
      ASSERT_TRUE(split.mutable_store().Append(std::move(first)).ok());
      ASSERT_TRUE(split.mutable_store().Append(std::move(second)).ok());
    } else {
      ASSERT_TRUE(split.mutable_store().Append(receipt).ok());
    }
  }
  split.Finalize();
  ExpectSameScores(original, split);
}

TEST(ModelProperties, DayShiftWithinWindowIrrelevant) {
  // Moving every receipt to the first day of its window changes nothing:
  // the model only sees window membership.
  const retail::Dataset original = SimulateSmall(4);
  const retail::Day span = 2 * retail::kDaysPerMonth;
  const retail::Dataset snapped =
      TransformDataset(original, [span](retail::Receipt* receipt) {
        receipt->day = (receipt->day / span) * span;
      });
  ExpectSameScores(original, snapped);
}

TEST(ModelProperties, RemovingOneCustomerLeavesOthersUnchanged) {
  const retail::Dataset original = SimulateSmall(5);
  const retail::CustomerId victim = original.store().Customers().front();
  std::vector<retail::CustomerId> keep;
  for (const retail::CustomerId customer : original.store().Customers()) {
    if (customer != victim) keep.push_back(customer);
  }
  const retail::Dataset reduced =
      original.FilterCustomers(keep).ValueOrDie();

  const auto model = StabilityModel::Make(Options()).ValueOrDie();
  StabilityModelOptions fixed_windows = Options();
  fixed_windows.num_windows = model.NumWindowsFor(original);
  const auto fixed_model = StabilityModel::Make(fixed_windows).ValueOrDie();
  const auto scores_full = fixed_model.ScoreDataset(original).ValueOrDie();
  const auto scores_reduced = fixed_model.ScoreDataset(reduced).ValueOrDie();
  for (const retail::CustomerId customer : keep) {
    const size_t row_full = scores_full.RowOf(customer).ValueOrDie();
    const size_t row_reduced = scores_reduced.RowOf(customer).ValueOrDie();
    for (int32_t window = 0; window < scores_full.num_windows(); ++window) {
      ASSERT_DOUBLE_EQ(scores_full.At(row_full, window),
                       scores_reduced.At(row_reduced, window));
    }
  }
}

TEST(ModelProperties, SymbolRelabelingPreservesStabilitySeries) {
  // Permuting the symbol alphabet leaves every stability value unchanged
  // (the model is content-agnostic).
  Rng rng(6);
  std::vector<Symbol> permutation(50);
  for (size_t i = 0; i < permutation.size(); ++i) {
    permutation[i] = static_cast<Symbol>(i);
  }
  rng.Shuffle(&permutation);

  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::vector<Symbol>> original;
    std::vector<std::vector<Symbol>> relabeled;
    const size_t windows = 3 + rng.NextUint64(10);
    for (size_t k = 0; k < windows; ++k) {
      std::vector<Symbol> window;
      const size_t size = rng.NextUint64(8);
      for (size_t i = 0; i < size; ++i) {
        window.push_back(
            static_cast<Symbol>(rng.NextUint64(permutation.size())));
      }
      std::vector<Symbol> mapped = window;
      for (Symbol& symbol : mapped) symbol = permutation[symbol];
      original.push_back(std::move(window));
      relabeled.push_back(std::move(mapped));
    }
    SignificanceOptions significance;
    significance.alpha = 2.0;
    const std::vector<StabilityPoint> series_a =
        StreamWindows(original, significance);
    const std::vector<StabilityPoint> series_b =
        StreamWindows(relabeled, significance);
    ASSERT_EQ(series_a.size(), series_b.size());
    for (size_t k = 0; k < series_a.size(); ++k) {
      ASSERT_DOUBLE_EQ(series_a[k].stability, series_b[k].stability);
    }
  }
}

TEST(ModelProperties, SpendIsIrrelevantToStability) {
  const retail::Dataset original = SimulateSmall(7);
  const retail::Dataset repriced =
      TransformDataset(original, [](retail::Receipt* receipt) {
        receipt->spend *= 1000.0;
      });
  ExpectSameScores(original, repriced);
}

}  // namespace
}  // namespace core
}  // namespace churnlab
