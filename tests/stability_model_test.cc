#include "core/stability_model.h"

#include <limits>

#include <gtest/gtest.h>

namespace churnlab {
namespace core {
namespace {

// Hand-built dataset: two customers over four 2-month windows at product
// granularity semantics (each product its own segment so both granularities
// agree).
retail::Dataset MakeHandDataset() {
  retail::Dataset dataset;
  const retail::DepartmentId department =
      dataset.mutable_taxonomy().AddDepartment("all");
  const auto add_item = [&](const std::string& name) {
    const retail::ItemId item = dataset.mutable_items().GetOrAdd(name);
    const retail::SegmentId segment =
        dataset.mutable_taxonomy().AddSegment(name, department).ValueOrDie();
    EXPECT_TRUE(dataset.mutable_taxonomy().AssignItem(item, segment).ok());
    return item;
  };
  const retail::ItemId coffee = add_item("coffee");
  const retail::ItemId milk = add_item("milk");

  // Customer 1 (loyal): buys both products every window (8 months).
  for (int32_t month = 0; month < 8; ++month) {
    retail::Receipt receipt;
    receipt.customer = 1;
    receipt.day = retail::MonthToFirstDay(month) + 5;
    receipt.items = {coffee, milk};
    receipt.spend = 7.0;
    EXPECT_TRUE(dataset.mutable_store().Append(std::move(receipt)).ok());
  }
  // Customer 2 (defecting): both products for 4 months, then coffee only,
  // then nothing in the final window.
  for (int32_t month = 0; month < 6; ++month) {
    retail::Receipt receipt;
    receipt.customer = 2;
    receipt.day = retail::MonthToFirstDay(month) + 5;
    receipt.items =
        month < 4 ? std::vector<retail::ItemId>{coffee, milk}
                  : std::vector<retail::ItemId>{coffee};
    receipt.spend = 5.0;
    EXPECT_TRUE(dataset.mutable_store().Append(std::move(receipt)).ok());
  }
  dataset.SetLabel(1, {retail::Cohort::kLoyal, -1});
  dataset.SetLabel(2, {retail::Cohort::kDefecting, 4});
  dataset.Finalize();
  return dataset;
}

StabilityModelOptions DefaultOptions() {
  StabilityModelOptions options;
  options.significance.alpha = 2.0;
  options.window_span_months = 2;
  return options;
}

TEST(StabilityModel, MakeValidatesOptions) {
  StabilityModelOptions bad_alpha = DefaultOptions();
  bad_alpha.significance.alpha = -1.0;
  EXPECT_FALSE(StabilityModel::Make(bad_alpha).ok());
  StabilityModelOptions bad_span = DefaultOptions();
  bad_span.window_span_months = 0;
  EXPECT_FALSE(StabilityModel::Make(bad_span).ok());
  // Spans whose length in days overflows the day type.
  StabilityModelOptions huge_span = DefaultOptions();
  huge_span.window_span_months =
      std::numeric_limits<retail::Day>::max() / retail::kDaysPerMonth + 1;
  EXPECT_TRUE(StabilityModel::Make(huge_span).status().IsInvalidArgument());
  huge_span.window_span_months = 100000000;
  EXPECT_TRUE(StabilityModel::Make(huge_span).status().IsInvalidArgument());
  huge_span.window_span_months =
      std::numeric_limits<retail::Day>::max() / retail::kDaysPerMonth;
  EXPECT_TRUE(StabilityModel::Make(huge_span).ok());
  EXPECT_TRUE(StabilityModel::Make(DefaultOptions()).ok());
}

TEST(StabilityModel, NumWindowsCoversDataset) {
  const retail::Dataset dataset = MakeHandDataset();
  const auto model = StabilityModel::Make(DefaultOptions()).ValueOrDie();
  // Last receipt day = 215 -> window 3 of span 60 -> 4 windows.
  EXPECT_EQ(model.NumWindowsFor(dataset), 4);
}

TEST(StabilityModel, NumWindowsOverride) {
  const retail::Dataset dataset = MakeHandDataset();
  StabilityModelOptions options = DefaultOptions();
  options.num_windows = 2;
  const auto model = StabilityModel::Make(options).ValueOrDie();
  EXPECT_EQ(model.NumWindowsFor(dataset), 2);
  const auto scores = model.ScoreDataset(dataset).ValueOrDie();
  EXPECT_EQ(scores.num_windows(), 2);
}

TEST(StabilityModel, ScoreDatasetShapeAndValues) {
  const retail::Dataset dataset = MakeHandDataset();
  const auto model = StabilityModel::Make(DefaultOptions()).ValueOrDie();
  const auto scores = model.ScoreDataset(dataset).ValueOrDie();
  EXPECT_EQ(scores.num_rows(), 2u);
  EXPECT_EQ(scores.num_windows(), 4);

  // Loyal customer: stability 1 everywhere.
  const size_t loyal = scores.RowOf(1).ValueOrDie();
  for (int32_t window = 0; window < 4; ++window) {
    EXPECT_DOUBLE_EQ(scores.At(loyal, window), 1.0) << "window " << window;
  }
  // Defector: 1.0 through window 1, 0.5 at window 2 (milk missing, equal
  // significance), 2/3 at window 3 (coffee still present with S=2^(2*3-3)=8,
  // milk S=2^(2*2-3)=2; but window 3 is empty -> stability 0).
  const size_t defector = scores.RowOf(2).ValueOrDie();
  EXPECT_DOUBLE_EQ(scores.At(defector, 0), 1.0);
  EXPECT_DOUBLE_EQ(scores.At(defector, 1), 1.0);
  EXPECT_DOUBLE_EQ(scores.At(defector, 2), 0.5);
  EXPECT_DOUBLE_EQ(scores.At(defector, 3), 0.0);
}

TEST(StabilityModel, ScoreCustomerMatchesMatrix) {
  const retail::Dataset dataset = MakeHandDataset();
  const auto model = StabilityModel::Make(DefaultOptions()).ValueOrDie();
  const auto scores = model.ScoreDataset(dataset).ValueOrDie();
  const auto series = model.ScoreCustomer(dataset, 2).ValueOrDie();
  const size_t row = scores.RowOf(2).ValueOrDie();
  ASSERT_EQ(series.size(), 4u);
  for (int32_t window = 0; window < 4; ++window) {
    EXPECT_DOUBLE_EQ(series.StabilityAt(static_cast<size_t>(window)),
                     scores.At(row, window));
  }
}

TEST(StabilityModel, ScoreCustomerUnknownFails) {
  const retail::Dataset dataset = MakeHandDataset();
  const auto model = StabilityModel::Make(DefaultOptions()).ValueOrDie();
  EXPECT_TRUE(model.ScoreCustomer(dataset, 99).status().IsNotFound());
  EXPECT_TRUE(model.AnalyzeCustomer(dataset, 99).status().IsNotFound());
}

TEST(StabilityModel, AnalyzeCustomerNamesLostProducts) {
  const retail::Dataset dataset = MakeHandDataset();
  const auto model = StabilityModel::Make(DefaultOptions()).ValueOrDie();
  const auto report = model.AnalyzeCustomer(dataset, 2).ValueOrDie();
  ASSERT_EQ(report.windows.size(), 4u);
  // Window 2: milk newly missing.
  const CustomerWindowReport& window2 = report.windows[2];
  ASSERT_FALSE(window2.missing.empty());
  EXPECT_EQ(window2.missing.front().name, "milk");
  EXPECT_TRUE(window2.missing.front().newly_missing);
  EXPECT_NEAR(window2.missing.front().significance_share, 0.5, 1e-12);
  EXPECT_EQ(window2.begin_month, 4);
  EXPECT_EQ(window2.end_month, 6);
  // The report renders without crashing and mentions the product.
  EXPECT_NE(report.ToString().find("milk"), std::string::npos);
}

TEST(StabilityModel, ProfileCustomerRanksSignificance) {
  const retail::Dataset dataset = MakeHandDataset();
  const auto model = StabilityModel::Make(DefaultOptions()).ValueOrDie();
  // Customer 2 at window 3: coffee bought in windows 0..2 (c=3, l=0,
  // S=2^3=8); milk bought in windows 0..1 (c=2, l=1, S=2^1=2).
  const auto profile = model.ProfileCustomer(dataset, 2, 3).ValueOrDie();
  EXPECT_EQ(profile.window_index, 3);
  ASSERT_EQ(profile.products.size(), 2u);
  EXPECT_EQ(profile.products[0].name, "coffee");
  EXPECT_EQ(profile.products[0].contain_count, 3);
  EXPECT_EQ(profile.products[0].miss_count, 0);
  EXPECT_DOUBLE_EQ(profile.products[0].significance, 8.0);
  EXPECT_FALSE(profile.products[0].present_in_window);  // window 3 is empty
  EXPECT_EQ(profile.products[1].name, "milk");
  EXPECT_EQ(profile.products[1].contain_count, 2);
  EXPECT_EQ(profile.products[1].miss_count, 1);
  EXPECT_DOUBLE_EQ(profile.products[1].significance, 2.0);
  EXPECT_DOUBLE_EQ(profile.total_significance, 10.0);
  EXPECT_NEAR(profile.products[0].significance_share, 0.8, 1e-12);
}

TEST(StabilityModel, ProfileDefaultsToFinalWindow) {
  const retail::Dataset dataset = MakeHandDataset();
  const auto model = StabilityModel::Make(DefaultOptions()).ValueOrDie();
  const auto profile = model.ProfileCustomer(dataset, 1).ValueOrDie();
  EXPECT_EQ(profile.window_index, 3);
  // Loyal customer: everything present.
  for (const SignificantProduct& product : profile.products) {
    EXPECT_TRUE(product.present_in_window);
  }
}

TEST(StabilityModel, ProfileValidatesWindowAndCustomer) {
  const retail::Dataset dataset = MakeHandDataset();
  const auto model = StabilityModel::Make(DefaultOptions()).ValueOrDie();
  EXPECT_TRUE(model.ProfileCustomer(dataset, 99).status().IsNotFound());
  EXPECT_TRUE(model.ProfileCustomer(dataset, 1, 10).status().IsOutOfRange());
}

TEST(StabilityModel, ParallelScoringMatchesSerial) {
  const retail::Dataset dataset = MakeHandDataset();
  StabilityModelOptions parallel_options = DefaultOptions();
  parallel_options.num_threads = 4;
  const auto serial_scores = StabilityModel::Make(DefaultOptions())
                                 .ValueOrDie()
                                 .ScoreDataset(dataset)
                                 .ValueOrDie();
  const auto parallel_scores = StabilityModel::Make(parallel_options)
                                   .ValueOrDie()
                                   .ScoreDataset(dataset)
                                   .ValueOrDie();
  for (size_t row = 0; row < serial_scores.num_rows(); ++row) {
    for (int32_t window = 0; window < serial_scores.num_windows(); ++window) {
      EXPECT_DOUBLE_EQ(serial_scores.At(row, window),
                       parallel_scores.At(row, window));
    }
  }
}

TEST(StabilityModel, ProductAndSegmentGranularityAgreeWhenTaxonomyIsTrivial) {
  // Every product is its own segment here, so the two granularities are
  // observationally identical.
  const retail::Dataset dataset = MakeHandDataset();
  StabilityModelOptions product_options = DefaultOptions();
  product_options.granularity = retail::Granularity::kProduct;
  const auto segment_scores = StabilityModel::Make(DefaultOptions())
                                  .ValueOrDie()
                                  .ScoreDataset(dataset)
                                  .ValueOrDie();
  const auto product_scores = StabilityModel::Make(product_options)
                                  .ValueOrDie()
                                  .ScoreDataset(dataset)
                                  .ValueOrDie();
  for (size_t row = 0; row < segment_scores.num_rows(); ++row) {
    for (int32_t window = 0; window < segment_scores.num_windows();
         ++window) {
      EXPECT_DOUBLE_EQ(segment_scores.At(row, window),
                       product_scores.At(row, window));
    }
  }
}

TEST(StabilityModel, UnfinalizedDatasetFails) {
  retail::Dataset dataset;
  retail::Receipt receipt;
  receipt.customer = 1;
  receipt.day = 0;
  receipt.items = {0};
  ASSERT_TRUE(dataset.mutable_store().Append(std::move(receipt)).ok());
  const auto model = StabilityModel::Make(DefaultOptions()).ValueOrDie();
  EXPECT_FALSE(model.ScoreDataset(dataset).ok());
}

}  // namespace
}  // namespace core
}  // namespace churnlab
