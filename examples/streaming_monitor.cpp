// Streaming monitoring: the production deployment pattern.
//
// Receipts arrive in day-ordered batches (here: replayed from a simulated
// dataset, one week per batch) and flow into a sharded scoring fleet. Each
// customer's monitor scores windows as they close and raises debounced
// alerts when stability crosses the beta threshold or drops sharply. The
// example replays a small population and prints the alert log with ground
// truth alongside.
//
// Usage: streaming_monitor [beta]

#include <cstdio>
#include <cstdlib>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "churnlab.h"
#include "common/macros.h"

namespace {

churnlab::Status Run(double beta) {
  using namespace churnlab;

  api::ScenarioConfig scenario;
  scenario.population.num_loyal = 60;
  scenario.population.num_defecting = 60;
  scenario.seed = 17;
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset,
                            api::MakeScenario(scenario));

  api::FleetOptions options;
  options.scorer.significance.alpha = 2.0;
  options.scorer.window_span_days = 2 * api::kDaysPerMonth;
  options.policy.beta = beta;
  options.policy.consecutive_windows = 1;
  options.policy.drop_threshold = 0.35;
  options.policy.warmup_windows = 2;
  options.num_shards = 8;
  CHURNLAB_ASSIGN_OR_RETURN(api::FleetHandle fleet,
                            api::FleetHandle::Make(options, dataset));

  // Replay the dataset as a production stream: receipts ordered by day
  // (each customer's stay chronological), ingested one week per batch as
  // gather views into the dataset.
  const std::vector<const api::Receipt*> replay =
      dataset.store().DayOrdered();

  size_t alerts_on_defectors = 0;
  size_t alerts_on_loyal = 0;
  std::set<api::CustomerId> alerted_defectors;
  std::vector<std::string> sample_log;
  const auto record = [&](const api::FleetAlert& fleet_alert) {
    const api::Cohort cohort = dataset.LabelOf(fleet_alert.customer).cohort;
    if (cohort == api::Cohort::kDefecting) {
      ++alerts_on_defectors;
      alerted_defectors.insert(fleet_alert.customer);
    } else {
      ++alerts_on_loyal;
    }
    if (sample_log.size() < 12) {
      sample_log.push_back("customer " + std::to_string(fleet_alert.customer) +
                           " (" + std::string(api::CohortToString(cohort)) +
                           "): " + fleet_alert.alert.ToString());
    }
  };

  for (size_t begin = 0; begin < replay.size();) {
    const api::Day batch_end = replay[begin]->day + 7;
    size_t end = begin;
    while (end < replay.size() && replay[end]->day < batch_end) ++end;
    CHURNLAB_ASSIGN_OR_RETURN(
        const api::BatchReport report,
        fleet.IngestBatch(std::span<const api::Receipt* const>(
            replay.data() + begin, end - begin)));
    for (const api::FleetAlert& alert : report.alerts) record(alert);
    begin = end;
  }
  // End of stream: flush every customer's in-progress window.
  CHURNLAB_ASSIGN_OR_RETURN(const api::BatchReport tail, fleet.FinishAll());
  for (const api::FleetAlert& alert : tail.alerts) record(alert);

  std::printf("=== Streaming fleet replay (beta = %.2f, %zu customers) ===\n\n",
              beta, fleet.NumCustomers());
  for (const std::string& line : sample_log) {
    std::printf("  %s\n", line.c_str());
  }
  std::printf("  ...\n\n");
  std::printf("alerts on defecting customers: %zu (%zu of 60 defectors "
              "flagged)\n",
              alerts_on_defectors, alerted_defectors.size());
  std::printf("alerts on loyal customers:     %zu (false alarms)\n",
              alerts_on_loyal);
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  const double beta = argc > 1 ? std::strtod(argv[1], nullptr) : 0.55;
  const churnlab::Status status = Run(beta);
  if (!status.ok()) {
    std::fprintf(stderr, "streaming_monitor failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
