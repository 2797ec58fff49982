// Determinism guarantees of the serving subsystem, replaying a simulated
// population as a day-ordered stream:
//
//   1. Alerts and snapshots are byte-identical for any thread count.
//   2. Alerts are identical for any shard count.
//   3. Snapshot -> restore -> continue is bit-identical to uninterrupted
//      streaming (the tentpole guarantee of the snapshot format).
//   4. Fleet alerts match a per-customer replay through raw
//      core::StabilityMonitor instances (the fleet adds sharding and
//      batching, never different math).
//   5. A gather-view batch (pointers to receipts stored anywhere) ingests
//      exactly like the same batch stored contiguously.

#include <algorithm>
#include <cstdio>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "core/monitor.h"
#include "core/symbol_mapper.h"
#include "datagen/scenario.h"
#include "retail/dataset.h"
#include "serve/fleet.h"

namespace churnlab {
namespace serve {
namespace {

using retail::CustomerId;
using retail::Day;
using retail::Receipt;

constexpr Day kBatchDays = 7;

const retail::Dataset& TestDataset() {
  static const retail::Dataset* dataset = [] {
    datagen::PaperScenarioConfig config;
    config.population.num_loyal = 30;
    config.population.num_defecting = 30;
    config.num_months = 20;
    config.seed = 99;
    return new retail::Dataset(
        datagen::MakePaperDataset(config).ValueOrDie());
  }();
  return *dataset;
}

// The dataset replayed as a production stream: day-ordered, with each
// customer's receipts kept chronological (AllReceipts is (customer, day)-
// sorted, so a stable sort by day preserves per-customer order).
const std::vector<Receipt>& ReplayStream() {
  static const std::vector<Receipt>* stream = [] {
    const std::span<const Receipt> all =
        TestDataset().store().AllReceipts();
    auto* replay = new std::vector<Receipt>(all.begin(), all.end());
    std::stable_sort(replay->begin(), replay->end(),
                     [](const Receipt& a, const Receipt& b) {
                       return a.day < b.day;
                     });
    return replay;
  }();
  return *stream;
}

FleetOptions TestOptions(size_t num_threads, size_t num_shards) {
  FleetOptions options;
  options.scorer.significance.alpha = 2.0;
  options.scorer.window_span_days = 2 * retail::kDaysPerMonth;
  options.policy.beta = 0.6;
  options.policy.drop_threshold = 0.3;
  options.policy.warmup_windows = 2;
  options.num_threads = num_threads;
  options.num_shards = num_shards;
  options.granularity = retail::Granularity::kSegment;
  return options;
}

// Canonical text form of an alert log, for byte-for-byte comparison.
std::string FormatAlerts(const std::vector<FleetAlert>& alerts) {
  std::string out;
  char line[160];
  for (const FleetAlert& alert : alerts) {
    std::snprintf(line, sizeof(line), "%llu@%zu w%d k%d s=%.17g d=%.17g\n",
                  static_cast<unsigned long long>(alert.customer),
                  alert.batch_index, alert.alert.window_index,
                  static_cast<int>(alert.alert.kind), alert.alert.stability,
                  alert.alert.drop);
    out += line;
  }
  return out;
}

std::string SnapshotOf(const ScoringFleet& fleet) {
  BinaryWriter writer;
  EXPECT_TRUE(fleet.SaveSnapshot(&writer).ok());
  return writer.buffer();
}

struct ReplayResult {
  std::string alert_log;
  std::string snapshot;
  size_t num_customers = 0;
};

// Replays the stream in `kBatchDays`-day batches. When `split_batch` >= 0,
// the fleet is snapshotted after that many batches, torn down, restored
// (with `resume_threads` workers and `resume_layout` storage), and the
// remainder replayed through the restored fleet — exercising the snapshot
// mid-stream.
ReplayResult Replay(size_t num_threads, size_t num_shards,
                    int split_batch = -1, size_t resume_threads = 0,
                    StateLayout layout = StateLayout::kCompact,
                    StateLayout resume_layout = StateLayout::kCompact) {
  const std::vector<Receipt>& replay = ReplayStream();
  FleetOptions options = TestOptions(num_threads, num_shards);
  options.layout = layout;
  auto fleet =
      ScoringFleet::Make(options, &TestDataset().taxonomy()).ValueOrDie();
  ReplayResult result;
  std::vector<FleetAlert> alerts;
  int batch_number = 0;
  for (size_t begin = 0; begin < replay.size();) {
    if (batch_number == split_batch) {
      // Tear down and resurrect the fleet from its snapshot mid-stream.
      const std::string snapshot = SnapshotOf(fleet);
      BinaryReader reader(snapshot);
      fleet = ScoringFleet::Restore(&reader, &TestDataset().taxonomy(),
                                    resume_threads, resume_layout)
                  .ValueOrDie();
    }
    const Day batch_end = replay[begin].day + kBatchDays;
    size_t end = begin;
    while (end < replay.size() && replay[end].day < batch_end) ++end;
    auto report = fleet
                      .IngestBatch(std::span<const Receipt>(
                          replay.data() + begin, end - begin))
                      .ValueOrDie();
    alerts.insert(alerts.end(), report.alerts.begin(), report.alerts.end());
    begin = end;
    ++batch_number;
  }
  auto tail = fleet.FinishAll().ValueOrDie();
  alerts.insert(alerts.end(), tail.alerts.begin(), tail.alerts.end());
  result.alert_log = FormatAlerts(alerts);
  result.snapshot = SnapshotOf(fleet);
  result.num_customers = fleet.NumCustomers();
  return result;
}

TEST(ServeDeterminism, ThreadCountNeverChangesAlertsOrSnapshot) {
  const ReplayResult baseline = Replay(/*num_threads=*/1, /*num_shards=*/16);
  EXPECT_FALSE(baseline.alert_log.empty());
  EXPECT_EQ(baseline.num_customers, 60u);
  for (const size_t threads : {size_t{4}, size_t{16}}) {
    const ReplayResult run = Replay(threads, /*num_shards=*/16);
    EXPECT_EQ(run.alert_log, baseline.alert_log) << threads << " threads";
    EXPECT_EQ(run.snapshot, baseline.snapshot) << threads << " threads";
  }
}

TEST(ServeDeterminism, ShardCountNeverChangesAlerts) {
  const ReplayResult baseline = Replay(/*num_threads=*/2, /*num_shards=*/1);
  for (const size_t shards : {size_t{4}, size_t{16}, size_t{64}}) {
    const ReplayResult run = Replay(/*num_threads=*/2, shards);
    EXPECT_EQ(run.alert_log, baseline.alert_log) << shards << " shards";
  }
}

TEST(ServeDeterminism, SnapshotRestoreContinueIsBitIdentical) {
  const ReplayResult uninterrupted =
      Replay(/*num_threads=*/4, /*num_shards=*/16);
  // Interrupt early, in the middle, and near the end of the stream; resume
  // with a different thread count to prove threads are a pure runtime
  // concern.
  for (const int split : {1, 20, 60}) {
    const ReplayResult resumed = Replay(/*num_threads=*/4, /*num_shards=*/16,
                                        split, /*resume_threads=*/2);
    EXPECT_EQ(resumed.alert_log, uninterrupted.alert_log)
        << "split at batch " << split;
    EXPECT_EQ(resumed.snapshot, uninterrupted.snapshot)
        << "split at batch " << split;
  }
}

TEST(ServeDeterminism, StorageLayoutNeverChangesAlertsOrSnapshot) {
  // The compact (SoA + arena) and heap layouts run the same kernels over
  // different storage; alerts and snapshot bytes must be identical.
  const ReplayResult compact = Replay(/*num_threads=*/2, /*num_shards=*/16);
  const ReplayResult heap =
      Replay(/*num_threads=*/2, /*num_shards=*/16, /*split_batch=*/-1,
             /*resume_threads=*/0, StateLayout::kHeap, StateLayout::kHeap);
  EXPECT_FALSE(compact.alert_log.empty());
  EXPECT_EQ(heap.alert_log, compact.alert_log);
  EXPECT_EQ(heap.snapshot, compact.snapshot);
}

TEST(ServeDeterminism, CrossLayoutRestoreContinuesBitIdentically) {
  // The layout is never serialized, so a snapshot taken under one layout
  // restores under the other and continues bit-identically.
  const ReplayResult uninterrupted =
      Replay(/*num_threads=*/2, /*num_shards=*/16);
  const ReplayResult compact_to_heap =
      Replay(/*num_threads=*/2, /*num_shards=*/16, /*split_batch=*/20,
             /*resume_threads=*/2, StateLayout::kCompact, StateLayout::kHeap);
  const ReplayResult heap_to_compact =
      Replay(/*num_threads=*/2, /*num_shards=*/16, /*split_batch=*/20,
             /*resume_threads=*/2, StateLayout::kHeap, StateLayout::kCompact);
  EXPECT_EQ(compact_to_heap.alert_log, uninterrupted.alert_log);
  EXPECT_EQ(compact_to_heap.snapshot, uninterrupted.snapshot);
  EXPECT_EQ(heap_to_compact.alert_log, uninterrupted.alert_log);
  EXPECT_EQ(heap_to_compact.snapshot, uninterrupted.snapshot);
}

// Canonical text form of everything a BatchReport carries.
std::string FormatReport(const BatchReport& report) {
  std::string out = FormatAlerts(report.alerts);
  out += "ingested=" + std::to_string(report.receipts_ingested) +
         " new=" + std::to_string(report.new_customers) + "\n";
  for (const RejectedReceipt& rejected : report.rejected) {
    out += "rejected " + std::to_string(rejected.customer) + "@" +
           std::to_string(rejected.batch_index) + " day " +
           std::to_string(rejected.day) + ": " + rejected.reason.ToString() +
           "\n";
  }
  for (const PoisonedShard& poisoned : report.poisoned) {
    out += "poisoned " + std::to_string(poisoned.shard) + "\n";
  }
  return out;
}

TEST(ServeDeterminism, GatherViewMatchesContiguousBatches) {
  // The contiguous stream, with one malformed receipt so rejections (and
  // their batch_index) are compared too.
  std::vector<Receipt> stream = ReplayStream();
  Receipt malformed = stream[10];
  malformed.customer = retail::kInvalidCustomer;
  stream.insert(stream.begin() + 10, malformed);
  // The same receipts stored in a permuted order, reached through pointers
  // in stream order.
  std::vector<size_t> slot(stream.size());
  for (size_t i = 0; i < slot.size(); ++i) slot[i] = i;
  std::shuffle(slot.begin(), slot.end(), std::mt19937(12345));
  std::vector<Receipt> permuted(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) permuted[slot[i]] = stream[i];
  std::vector<const Receipt*> gathered(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) gathered[i] = &permuted[slot[i]];

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    for (const size_t shards : {size_t{1}, size_t{16}}) {
      const FleetOptions options = TestOptions(threads, shards);
      auto contiguous =
          ScoringFleet::Make(options, &TestDataset().taxonomy()).ValueOrDie();
      auto gather =
          ScoringFleet::Make(options, &TestDataset().taxonomy()).ValueOrDie();
      size_t rejected = 0;
      for (size_t begin = 0; begin < stream.size();) {
        const Day batch_end = stream[begin].day + kBatchDays;
        size_t end = begin;
        while (end < stream.size() && stream[end].day < batch_end) ++end;
        const BatchReport expected =
            contiguous
                .IngestBatch(std::span<const Receipt>(stream.data() + begin,
                                                      end - begin))
                .ValueOrDie();
        const BatchReport actual =
            gather
                .IngestBatch(std::span<const Receipt* const>(
                    gathered.data() + begin, end - begin))
                .ValueOrDie();
        ASSERT_EQ(FormatReport(actual), FormatReport(expected))
            << threads << " threads, " << shards << " shards, batch at "
            << begin;
        rejected += actual.rejected.size();
        begin = end;
      }
      EXPECT_EQ(rejected, 1u);
      EXPECT_EQ(FormatReport(gather.FinishAll().ValueOrDie()),
                FormatReport(contiguous.FinishAll().ValueOrDie()));
      EXPECT_EQ(SnapshotOf(gather), SnapshotOf(contiguous))
          << threads << " threads, " << shards << " shards";
    }
  }
}

// Alert key used for the fleet vs raw-monitor cross-check: FinishAll alerts
// carry batch_index 0, so compare (customer, window, kind, values) only.
using AlertKey = std::tuple<CustomerId, int32_t, int, double, double>;

std::vector<AlertKey> Keys(const std::vector<FleetAlert>& alerts) {
  std::vector<AlertKey> keys;
  keys.reserve(alerts.size());
  for (const FleetAlert& alert : alerts) {
    keys.emplace_back(alert.customer, alert.alert.window_index,
                      static_cast<int>(alert.alert.kind),
                      alert.alert.stability, alert.alert.drop);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(ServeDeterminism, FleetMatchesPerCustomerMonitorReplay) {
  const retail::Dataset& dataset = TestDataset();
  const FleetOptions options = TestOptions(/*num_threads=*/4,
                                           /*num_shards=*/16);

  // Fleet side: batched day-ordered replay.
  auto fleet =
      ScoringFleet::Make(options, &dataset.taxonomy()).ValueOrDie();
  std::vector<FleetAlert> fleet_alerts;
  const std::vector<Receipt>& replay = ReplayStream();
  for (size_t begin = 0; begin < replay.size();) {
    const Day batch_end = replay[begin].day + kBatchDays;
    size_t end = begin;
    while (end < replay.size() && replay[end].day < batch_end) ++end;
    auto report = fleet
                      .IngestBatch(std::span<const Receipt>(
                          replay.data() + begin, end - begin))
                      .ValueOrDie();
    fleet_alerts.insert(fleet_alerts.end(), report.alerts.begin(),
                        report.alerts.end());
    begin = end;
  }
  auto tail = fleet.FinishAll().ValueOrDie();
  fleet_alerts.insert(fleet_alerts.end(), tail.alerts.begin(),
                      tail.alerts.end());

  // Reference side: one raw StabilityMonitor per customer, fed that
  // customer's history directly (same symbol mapping as the fleet: sorted,
  // deduplicated mapped items).
  auto mapper = core::SymbolMapper::Make(options.granularity,
                                         &dataset.taxonomy())
                    .ValueOrDie();
  std::vector<FleetAlert> reference_alerts;
  for (const CustomerId customer : dataset.store().Customers()) {
    auto monitor =
        core::StabilityMonitor::Make(options.scorer, options.policy)
            .ValueOrDie();
    std::vector<core::Symbol> symbols;
    const auto record = [&](std::vector<core::StabilityAlert> alerts) {
      for (core::StabilityAlert& alert : alerts) {
        reference_alerts.push_back(FleetAlert{customer, 0, alert});
      }
    };
    for (const Receipt& receipt : dataset.store().History(customer)) {
      symbols.clear();
      for (const retail::ItemId item : receipt.items) {
        symbols.push_back(mapper.Map(item));
      }
      std::sort(symbols.begin(), symbols.end());
      symbols.erase(std::unique(symbols.begin(), symbols.end()),
                    symbols.end());
      record(monitor.Observe(receipt.day, symbols).ValueOrDie());
    }
    record(monitor.Finish().ValueOrDie());
  }

  EXPECT_EQ(Keys(fleet_alerts), Keys(reference_alerts));
}

}  // namespace
}  // namespace serve
}  // namespace churnlab
