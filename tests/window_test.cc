// Windowing of the paper's D^w_i: consecutive, non-overlapping, equal-span
// windows anchored at day 0, each holding the union u_k of the symbols
// bought inside it. The streaming scorer does the windowing, and
// StabilityModel's replay adds the dataset-wide horizon; both are checked
// here.

#include <gtest/gtest.h>

#include <vector>

#include "core/online_scorer.h"
#include "core/stability_model.h"
#include "retail/dataset.h"

namespace churnlab {
namespace core {
namespace {

retail::Receipt MakeReceipt(retail::Day day,
                            std::vector<retail::ItemId> items) {
  retail::Receipt receipt;
  receipt.customer = 1;
  receipt.day = day;
  receipt.items = std::move(items);
  receipt.spend = 5.0;
  return receipt;
}

retail::Dataset MakeDataset(std::vector<retail::Receipt> receipts) {
  retail::Dataset dataset;
  for (retail::Receipt& receipt : receipts) {
    EXPECT_TRUE(dataset.mutable_store().Append(std::move(receipt)).ok());
  }
  dataset.Finalize();
  return dataset;
}

/// Two-month windows (60 days) at product granularity: symbols are item ids.
StabilityModel ProductModel(int32_t num_windows = -1) {
  StabilityModelOptions options;
  options.granularity = retail::Granularity::kProduct;
  options.num_windows = num_windows;
  return StabilityModel::Make(options).ValueOrDie();
}

OnlineStabilityScorer SpanScorer(retail::Day span_days) {
  OnlineStabilityScorer::Options options;
  options.window_span_days = span_days;
  return OnlineStabilityScorer::Make(options).ValueOrDie();
}

TEST(Windower, MakeValidatesOptions) {
  OnlineStabilityScorer::Options bad_span;
  bad_span.window_span_days = 0;
  EXPECT_TRUE(
      OnlineStabilityScorer::Make(bad_span).status().IsInvalidArgument());
  OnlineStabilityScorer::Options bad_origin;
  bad_origin.origin_day = -1;
  EXPECT_TRUE(
      OnlineStabilityScorer::Make(bad_origin).status().IsInvalidArgument());
  EXPECT_TRUE(OnlineStabilityScorer::Make({}).ok());
}

TEST(Windower, WindowIndexOfAndCoverage) {
  OnlineStabilityScorer scorer = SpanScorer(60);
  ASSERT_TRUE(scorer.Observe(0, {1}).ok());
  EXPECT_EQ(scorer.current_window(), 0);
  ASSERT_TRUE(scorer.Observe(59, {1}).ok());
  EXPECT_EQ(scorer.current_window(), 0);
  ASSERT_TRUE(scorer.Observe(60, {1}).ok());
  EXPECT_EQ(scorer.current_window(), 1);

  const StabilityModel model = ProductModel();
  EXPECT_EQ(model.NumWindowsFor(MakeDataset({MakeReceipt(0, {1})})), 1);
  EXPECT_EQ(model.NumWindowsFor(MakeDataset({MakeReceipt(59, {1})})), 1);
  EXPECT_EQ(model.NumWindowsFor(MakeDataset({MakeReceipt(60, {1})})), 2);
  EXPECT_EQ(model.NumWindowsFor(MakeDataset({})), 0);
}

TEST(Windower, BuildsUnionPerWindow) {
  OnlineStabilityScorer scorer = SpanScorer(60);
  ASSERT_TRUE(scorer.Observe(1, {1, 2}).ok());
  ASSERT_TRUE(scorer.Observe(30, {3, 2}).ok());
  EXPECT_EQ(std::vector<Symbol>(scorer.current_symbols().begin(),
                                scorer.current_symbols().end()),
            (std::vector<Symbol>{1, 2, 3}));

  const retail::Dataset dataset = MakeDataset({
      MakeReceipt(1, {1, 2}),
      MakeReceipt(30, {2, 3}),
      MakeReceipt(65, {4}),
  });
  const CustomerReport report =
      ProductModel().AnalyzeCustomer(dataset, 1).ValueOrDie();
  ASSERT_EQ(report.windows.size(), 2u);
  EXPECT_EQ(report.windows[0].basket_union_size, 3u);
  EXPECT_EQ(report.windows[0].num_receipts, 2u);
  EXPECT_EQ(report.windows[1].basket_union_size, 1u);
  EXPECT_EQ(report.windows[1].num_receipts, 1u);
}

TEST(Windower, EmptyWindowsMaterialised) {
  const retail::Dataset dataset =
      MakeDataset({MakeReceipt(1, {1}), MakeReceipt(200, {2})});
  const CustomerReport report =
      ProductModel().AnalyzeCustomer(dataset, 1).ValueOrDie();
  ASSERT_EQ(report.windows.size(), 4u);
  for (const size_t k : {1u, 2u}) {
    EXPECT_EQ(report.windows[k].basket_union_size, 0u);
    EXPECT_EQ(report.windows[k].num_receipts, 0u);
    EXPECT_DOUBLE_EQ(report.windows[k].stability, 0.0);
  }
  EXPECT_EQ(report.windows[3].basket_union_size, 1u);
}

TEST(Windower, FixedNumWindowsDropsOutOfRangeReceipts) {
  const retail::Dataset dataset = MakeDataset({
      MakeReceipt(1, {1}),
      MakeReceipt(500, {2}),  // beyond the fixed horizon
  });
  const CustomerReport report =
      ProductModel(2).AnalyzeCustomer(dataset, 1).ValueOrDie();
  ASSERT_EQ(report.windows.size(), 2u);
  EXPECT_EQ(report.windows[0].basket_union_size, 1u);
  EXPECT_EQ(report.windows[1].basket_union_size, 0u);
  EXPECT_EQ(report.windows[1].num_receipts, 0u);
  EXPECT_EQ(ProductModel(2).ScoreCustomer(dataset, 1).ValueOrDie().size(), 2u);
}

TEST(Windower, EmptyHistoryNoWindows) {
  const retail::Dataset dataset = MakeDataset({MakeReceipt(1, {1})});
  EXPECT_EQ(ProductModel(0).ScoreCustomer(dataset, 1).ValueOrDie().size(), 0u);
  EXPECT_TRUE(ProductModel(0).AnalyzeCustomer(dataset, 1).ValueOrDie()
                  .windows.empty());
}

TEST(Windower, MapperCanMergeAndDropSymbols) {
  // The scorer drops kInvalidSymbol and merges repeats.
  OnlineStabilityScorer scorer = SpanScorer(60);
  ASSERT_TRUE(scorer.Observe(1, {100, kInvalidSymbol, 100}).ok());
  EXPECT_EQ(std::vector<Symbol>(scorer.current_symbols().begin(),
                                scorer.current_symbols().end()),
            (std::vector<Symbol>{100}));

  // At segment granularity the items of one segment merge into one symbol;
  // an unassigned item keeps its own bucket.
  retail::Dataset dataset = MakeDataset({MakeReceipt(1, {1, 2, 3, 4})});
  const retail::DepartmentId department =
      dataset.mutable_taxonomy().AddDepartment("all");
  const retail::SegmentId segment =
      dataset.mutable_taxonomy().AddSegment("s", department).ValueOrDie();
  for (const retail::ItemId item : {1u, 2u, 3u}) {
    ASSERT_TRUE(dataset.mutable_taxonomy().AssignItem(item, segment).ok());
  }
  StabilityModelOptions options;
  options.granularity = retail::Granularity::kSegment;
  const CustomerReport report = StabilityModel::Make(options)
                                    .ValueOrDie()
                                    .AnalyzeCustomer(dataset, 1)
                                    .ValueOrDie();
  ASSERT_EQ(report.windows.size(), 1u);
  EXPECT_EQ(report.windows[0].basket_union_size, 2u);
}

// Property suite: windows are consecutive and equal span, and every receipt
// lands in the window containing its day.
class WindowerPropertyTest : public ::testing::TestWithParam<int32_t> {};

TEST_P(WindowerPropertyTest, InvariantsHold) {
  const retail::Day span = GetParam();
  OnlineStabilityScorer scorer = SpanScorer(span);
  // The symbol of each observation is its day.
  std::vector<Symbol> symbols_seen;
  const auto check_and_close = [&] {
    const retail::Day begin = scorer.current_window() * span;
    for (const Symbol symbol : scorer.current_symbols()) {
      EXPECT_GE(static_cast<retail::Day>(symbol), begin);
      EXPECT_LT(static_cast<retail::Day>(symbol), begin + span);
      symbols_seen.push_back(symbol);
    }
    const int32_t closing = scorer.current_window();
    const auto closed = scorer.AdvanceTo(begin + span).ValueOrDie();
    ASSERT_EQ(closed.size(), 1u);
    EXPECT_EQ(closed[0].window_index, closing);
  };
  std::vector<Symbol> days;
  for (retail::Day day = 0; day < 400; day += 13) {
    while (scorer.current_window() < day / span) check_and_close();
    ASSERT_TRUE(scorer.Observe(day, {static_cast<Symbol>(day)}).ok());
    days.push_back(static_cast<Symbol>(day));
  }
  check_and_close();
  EXPECT_EQ(scorer.current_window(), 390 / span + 1);
  EXPECT_EQ(symbols_seen, days);
}

INSTANTIATE_TEST_SUITE_P(Spans, WindowerPropertyTest,
                         ::testing::Values(7, 30, 60, 90, 365));

}  // namespace
}  // namespace core
}  // namespace churnlab
