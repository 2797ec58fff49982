// End-to-end pipeline tests: simulate -> serialize -> reload -> score with
// both models -> evaluate. These are the system-level guarantees a
// downstream user relies on; each test exercises several modules together.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/stability_model.h"
#include "core/symbol_mapper.h"
#include "datagen/scenario.h"
#include "eval/experiment.h"
#include "eval/grid_search.h"
#include "retail/dataset.h"
#include "rfm/rfm_model.h"
#include "significance_reference.h"

namespace churnlab {
namespace {

datagen::PaperScenarioConfig SmallScenario() {
  datagen::PaperScenarioConfig config;
  config.population.num_loyal = 100;
  config.population.num_defecting = 100;
  config.seed = 77;
  return config;
}

TEST(Integration, ScoresSurviveBinaryRoundTrip) {
  const retail::Dataset original =
      datagen::MakePaperDataset(SmallScenario()).ValueOrDie();
  const std::string path = testing::TempDir() + "/churnlab_integration.clb";
  ASSERT_TRUE(original.SaveBinary(path).ok());
  const retail::Dataset reloaded =
      retail::Dataset::LoadBinary(path).ValueOrDie();
  std::remove(path.c_str());

  core::StabilityModelOptions options;
  options.significance.alpha = 2.0;
  options.window_span_months = 2;
  const auto model = core::StabilityModel::Make(options).ValueOrDie();
  const auto scores_a = model.ScoreDataset(original).ValueOrDie();
  const auto scores_b = model.ScoreDataset(reloaded).ValueOrDie();
  ASSERT_EQ(scores_a.num_rows(), scores_b.num_rows());
  ASSERT_EQ(scores_a.num_windows(), scores_b.num_windows());
  for (size_t row = 0; row < scores_a.num_rows(); ++row) {
    for (int32_t window = 0; window < scores_a.num_windows(); ++window) {
      ASSERT_DOUBLE_EQ(scores_a.At(row, window), scores_b.At(row, window))
          << "row " << row << " window " << window;
    }
  }
}

TEST(Integration, ScoresSurviveCsvRoundTrip) {
  const retail::Dataset original =
      datagen::MakePaperDataset(SmallScenario()).ValueOrDie();
  const std::string prefix = testing::TempDir() + "/churnlab_integration_csv";
  ASSERT_TRUE(original.SaveCsv(prefix).ok());
  const retail::Dataset reloaded =
      retail::Dataset::LoadCsv(prefix).ValueOrDie();
  std::remove((prefix + ".receipts.csv").c_str());
  std::remove((prefix + ".taxonomy.csv").c_str());
  std::remove((prefix + ".labels.csv").c_str());

  // CSV re-interns items in taxonomy-then-receipt order, so raw ids may
  // differ — but segment-level stability must be identical. Spend is
  // rounded to cents in CSV, which RFM sees; stability does not use spend.
  core::StabilityModelOptions options;
  options.significance.alpha = 2.0;
  options.window_span_months = 2;
  const auto model = core::StabilityModel::Make(options).ValueOrDie();
  const auto scores_a = model.ScoreDataset(original).ValueOrDie();
  const auto scores_b = model.ScoreDataset(reloaded).ValueOrDie();
  for (size_t row = 0; row < scores_a.num_rows(); ++row) {
    for (int32_t window = 0; window < scores_a.num_windows(); ++window) {
      ASSERT_NEAR(scores_a.At(row, window), scores_b.At(row, window), 1e-12);
    }
  }
}

TEST(Integration, OnlineScorerMatchesModelOnSimulatedCustomers) {
  // The model replays every customer through the streaming scorer; check
  // its scores against the independent reference series.
  const retail::Dataset dataset =
      datagen::MakePaperDataset(SmallScenario()).ValueOrDie();
  core::StabilityModelOptions options;
  options.significance.alpha = 2.0;
  options.window_span_months = 2;
  const auto model = core::StabilityModel::Make(options).ValueOrDie();
  const auto batch_scores = model.ScoreDataset(dataset).ValueOrDie();
  const auto mapper = core::SymbolMapper::Make(retail::Granularity::kSegment,
                                               &dataset.taxonomy())
                          .ValueOrDie();

  // Compare every window of the first 10 customers.
  const auto& customers = dataset.store().Customers();
  for (size_t i = 0; i < 10 && i < customers.size(); ++i) {
    const std::vector<core::StabilityPoint> reference =
        core::ReferenceStabilitySeries(
            dataset.store().History(customers[i]), mapper, 60,
            batch_scores.num_windows(), options.significance);
    const core::StabilitySeries series =
        model.ScoreCustomer(dataset, customers[i]).ValueOrDie();
    const std::string what = "customer " + std::to_string(customers[i]);
    core::ExpectMatchesReferenceSeries(series.points, reference, what);

    const size_t row = batch_scores.RowOf(customers[i]).ValueOrDie();
    ASSERT_EQ(reference.size(),
              static_cast<size_t>(batch_scores.num_windows()));
    for (size_t k = 0; k < reference.size(); ++k) {
      core::ExpectClose(batch_scores.At(row, static_cast<int32_t>(k)),
                        reference[k].stability,
                        what + " window " + std::to_string(k));
    }
  }
}

TEST(Integration, BothModelsBeatChanceAfterOnsetOnFreshScenario) {
  datagen::PaperScenarioConfig scenario = SmallScenario();
  scenario.seed = 1234;  // a seed no other test uses
  eval::Figure1Options options;
  options.scenario = scenario;
  const eval::Figure1Result result =
      eval::ExperimentRunner::Make(options).ValueOrDie().Run().ValueOrDie();
  double stability_at_24 = 0.0;
  double rfm_at_24 = 0.0;
  for (const eval::Figure1Row& row : result.rows) {
    if (row.report_month == 24) {
      stability_at_24 = row.stability_auroc;
      rfm_at_24 = row.rfm_auroc;
    }
  }
  EXPECT_GT(stability_at_24, 0.8);
  EXPECT_GT(rfm_at_24, 0.8);
}

TEST(Integration, GridSearchPrefersInformativeWindows) {
  const retail::Dataset dataset =
      datagen::MakePaperDataset(SmallScenario()).ValueOrDie();
  eval::GridSearchOptions options;
  options.window_spans_months = {2};
  options.alphas = {1.0, 2.0};
  options.folds = 4;
  options.onset_month = 18;
  const eval::GridSearchResult result =
      eval::StabilityGridSearch::Make(options).ValueOrDie().Run(dataset).ValueOrDie();
  // alpha = 1 weighs every seen product equally forever; alpha = 2 adapts.
  // Both should beat chance post-onset.
  for (const eval::GridSearchCell& cell : result.cells) {
    EXPECT_GT(cell.mean_auroc, 0.6)
        << "alpha " << cell.alpha;
  }
}

TEST(Integration, EwmaVariantDetectsChurnToo) {
  const retail::Dataset dataset =
      datagen::MakePaperDataset(SmallScenario()).ValueOrDie();
  core::StabilityModelOptions options;
  options.significance.kind = core::SignificanceKind::kEwma;
  options.significance.ewma_lambda = 0.7;
  options.window_span_months = 2;
  const auto model = core::StabilityModel::Make(options).ValueOrDie();
  const auto scores = model.ScoreDataset(dataset).ValueOrDie();
  const auto series =
      eval::AurocPerWindow(dataset, scores,
                           eval::ScoreOrientation::kLowerIsPositive, 2)
          .ValueOrDie();
  double at_24 = 0.0;
  for (const eval::WindowAuroc& point : series) {
    if (point.report_month == 24) at_24 = point.auroc;
  }
  EXPECT_GT(at_24, 0.8);
}

}  // namespace
}  // namespace churnlab
