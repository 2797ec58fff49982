// Determinism guarantees of the serving subsystem, replaying a simulated
// population as a day-ordered stream:
//
//   1. Alerts and snapshots are byte-identical for any thread count.
//   2. Alerts are identical for any shard count.
//   3. Snapshot -> restore -> continue is bit-identical to uninterrupted
//      streaming (the tentpole guarantee of the snapshot format).
//   4. Fleet alerts and shard state bytes match a per-customer replay
//      through raw core::StabilityMonitor instances, at end of stream and
//      mid-stream, and a monitor loaded from a mid-stream shard frame
//      continues to the same alerts (the fleet adds sharding, batching and
//      a compact storage layout, never different math).
//   5. A gather-view batch (pointers to receipts stored anywhere) ingests
//      exactly like the same batch stored contiguously.
//   6. Batch size never changes alerts or snapshots, in particular for
//      per-shard receipt lists shorter than, as long as and longer than
//      the prefetch distances of IngestBatch's pipelined apply loop.

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <set>
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
// (with `resume_threads` workers), and the remainder replayed through the
// restored fleet — exercising the snapshot mid-stream.
ReplayResult Replay(size_t num_threads, size_t num_shards,
                    int split_batch = -1, size_t resume_threads = 0) {
  const std::vector<Receipt>& replay = ReplayStream();
  const FleetOptions options = TestOptions(num_threads, num_shards);
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
                                    resume_threads)
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

// Byte length of a snapshot's header (magic, version, options): the
// snapshot of an empty fleet with the same options, minus its empty shard
// frames (size 1, CRC, one zero count byte each).
size_t SnapshotHeaderSize(const FleetOptions& options) {
  auto empty =
      ScoringFleet::Make(options, &TestDataset().taxonomy()).ValueOrDie();
  const char zero = 0;
  BinaryWriter empty_frame;
  empty_frame.WriteVarint(1);
  empty_frame.WriteVarint(Crc32(&zero, 1));
  empty_frame.WriteBytes(&zero, 1);
  return SnapshotOf(empty).size() -
         options.num_shards * empty_frame.buffer().size();
}

// The per-shard payloads of a fleet snapshot — exactly the bytes each
// shard's CustomerStateStore::SaveShardState wrote — in shard order.
std::vector<std::string> ShardFrames(const std::string& snapshot,
                                     const FleetOptions& options) {
  BinaryReader reader(snapshot);
  EXPECT_TRUE(reader.ReadBytes(SnapshotHeaderSize(options)).ok());
  std::vector<std::string> frames;
  for (size_t shard = 0; shard < options.num_shards; ++shard) {
    const uint64_t size = reader.ReadVarint().ValueOrDie();
    const uint64_t crc = reader.ReadVarint().ValueOrDie();
    std::string payload = reader.ReadBytes(size).ValueOrDie();
    EXPECT_EQ(Crc32(payload.data(), payload.size()), crc) << shard;
    frames.push_back(std::move(payload));
  }
  EXPECT_TRUE(reader.AtEnd());
  return frames;
}

// A shard frame written from independent monitors the way SaveShardState
// lays it out: the customer count, then per customer in slot order its id
// and its StabilityMonitor::SaveState bytes.
std::string MonitorShardFrame(const std::vector<CustomerId>& slots,
                              const std::map<CustomerId, std::string>& state) {
  BinaryWriter writer;
  writer.WriteVarint(slots.size());
  for (const CustomerId customer : slots) {
    writer.WriteVarint(customer);
    const std::string& bytes = state.at(customer);
    writer.WriteBytes(bytes.data(), bytes.size());
  }
  return writer.buffer();
}

// The symbol set the fleet observes for `receipt`: its mapped items,
// sorted and deduplicated.
std::vector<core::Symbol> SymbolsOf(const core::SymbolMapper& mapper,
                                    const Receipt& receipt) {
  std::vector<core::Symbol> symbols;
  for (const retail::ItemId item : receipt.items) {
    symbols.push_back(mapper.Map(item));
  }
  std::sort(symbols.begin(), symbols.end());
  symbols.erase(std::unique(symbols.begin(), symbols.end()), symbols.end());
  return symbols;
}

std::string SavedState(const core::StabilityMonitor& monitor) {
  BinaryWriter writer;
  monitor.SaveState(&writer);
  return writer.buffer();
}

TEST(ServeDeterminism, FleetMatchesPerCustomerMonitorReplay) {
  const retail::Dataset& dataset = TestDataset();
  const FleetOptions options = TestOptions(/*num_threads=*/4,
                                           /*num_shards=*/16);
  constexpr int kSplitBatch = 20;

  // Fleet side: batched day-ordered replay, snapshotted before batch
  // kSplitBatch, whose first day is the split day.
  auto fleet =
      ScoringFleet::Make(options, &dataset.taxonomy()).ValueOrDie();
  std::vector<FleetAlert> fleet_alerts;
  std::vector<FleetAlert> fleet_late_alerts;
  std::string mid_snapshot;
  Day split_day = -1;
  const std::vector<Receipt>& replay = ReplayStream();
  int batch_number = 0;
  for (size_t begin = 0; begin < replay.size(); ++batch_number) {
    if (batch_number == kSplitBatch) {
      mid_snapshot = SnapshotOf(fleet);
      split_day = replay[begin].day;
    }
    const Day batch_end = replay[begin].day + kBatchDays;
    size_t end = begin;
    while (end < replay.size() && replay[end].day < batch_end) ++end;
    auto report = fleet
                      .IngestBatch(std::span<const Receipt>(
                          replay.data() + begin, end - begin))
                      .ValueOrDie();
    fleet_alerts.insert(fleet_alerts.end(), report.alerts.begin(),
                        report.alerts.end());
    if (split_day >= 0) {
      fleet_late_alerts.insert(fleet_late_alerts.end(),
                               report.alerts.begin(), report.alerts.end());
    }
    begin = end;
  }
  ASSERT_GE(split_day, 0) << "stream shorter than the split batch";
  auto tail = fleet.FinishAll().ValueOrDie();
  fleet_alerts.insert(fleet_alerts.end(), tail.alerts.begin(),
                      tail.alerts.end());
  fleet_late_alerts.insert(fleet_late_alerts.end(), tail.alerts.begin(),
                           tail.alerts.end());

  // Slot order: a shard stores customers in order of first appearance in
  // the stream.
  std::vector<std::vector<CustomerId>> slots(options.num_shards);
  std::vector<std::vector<CustomerId>> mid_slots(options.num_shards);
  std::set<CustomerId> seen;
  for (const Receipt& receipt : replay) {
    if (!seen.insert(receipt.customer).second) continue;
    const size_t shard = StableHash(receipt.customer) % options.num_shards;
    slots[shard].push_back(receipt.customer);
    if (receipt.day < split_day) mid_slots[shard].push_back(receipt.customer);
  }

  // Reference side: one raw StabilityMonitor per customer, fed that
  // customer's history directly (same symbol mapping as the fleet: sorted,
  // deduplicated mapped items). Its state is saved at the split day and at
  // end of stream.
  auto mapper = core::SymbolMapper::Make(options.granularity,
                                         &dataset.taxonomy())
                    .ValueOrDie();
  const auto symbols_of = [&mapper](const Receipt& receipt) {
    return SymbolsOf(mapper, receipt);
  };
  // Receipts before the split day come first in each (day-sorted) history.
  const auto early_count = [&](CustomerId customer) {
    const std::span<const Receipt> history =
        dataset.store().History(customer);
    return static_cast<size_t>(
        std::partition_point(
            history.begin(), history.end(),
            [split_day](const Receipt& r) { return r.day < split_day; }) -
        history.begin());
  };
  std::vector<FleetAlert> reference_alerts;
  std::vector<FleetAlert> reference_late_alerts;
  std::map<CustomerId, std::string> mid_state;
  std::map<CustomerId, std::string> end_state;
  for (const CustomerId customer : dataset.store().Customers()) {
    auto monitor =
        core::StabilityMonitor::Make(options.scorer, options.policy)
            .ValueOrDie();
    const std::span<const Receipt> history =
        dataset.store().History(customer);
    const size_t early = early_count(customer);
    const auto record = [&](std::vector<core::StabilityAlert> alerts,
                            bool late) {
      for (core::StabilityAlert& alert : alerts) {
        reference_alerts.push_back(FleetAlert{customer, 0, alert});
        if (late) reference_late_alerts.push_back(reference_alerts.back());
      }
    };
    for (size_t i = 0; i < history.size(); ++i) {
      if (i == early && early > 0) mid_state[customer] = SavedState(monitor);
      const Receipt& receipt = history[i];
      record(monitor.Observe(receipt.day, symbols_of(receipt)).ValueOrDie(),
             i >= early);
    }
    if (early == history.size()) mid_state[customer] = SavedState(monitor);
    record(monitor.Finish().ValueOrDie(), /*late=*/true);
    end_state[customer] = SavedState(monitor);
  }

  EXPECT_EQ(Keys(fleet_alerts), Keys(reference_alerts));

  // Each shard's state bytes equal the frame the independent monitors
  // write, mid-stream and at end of stream.
  const std::vector<std::string> mid_frames =
      ShardFrames(mid_snapshot, options);
  const std::vector<std::string> end_frames =
      ShardFrames(SnapshotOf(fleet), options);
  for (size_t shard = 0; shard < options.num_shards; ++shard) {
    EXPECT_EQ(mid_frames[shard], MonitorShardFrame(mid_slots[shard],
                                                   mid_state))
        << "mid-stream frame of shard " << shard;
    EXPECT_EQ(end_frames[shard], MonitorShardFrame(slots[shard], end_state))
        << "end-of-stream frame of shard " << shard;
  }

  // A monitor loaded from the fleet's mid-stream frame continues to the
  // same alerts as the fleet and the uninterrupted monitor. Customers not
  // yet in the frame start fresh.
  std::map<CustomerId, core::StabilityMonitor> resumed;
  for (size_t shard = 0; shard < options.num_shards; ++shard) {
    BinaryReader frame(mid_frames[shard]);
    const uint64_t count = frame.ReadVarint().ValueOrDie();
    for (uint64_t i = 0; i < count; ++i) {
      const auto customer =
          static_cast<CustomerId>(frame.ReadVarint().ValueOrDie());
      auto monitor =
          core::StabilityMonitor::Make(options.scorer, options.policy)
              .ValueOrDie();
      ASSERT_TRUE(monitor.LoadState(&frame).ok()) << customer;
      resumed.emplace(customer, std::move(monitor));
    }
    EXPECT_TRUE(frame.AtEnd()) << shard;
  }
  std::vector<FleetAlert> resumed_alerts;
  for (const CustomerId customer : dataset.store().Customers()) {
    auto it = resumed.find(customer);
    if (it == resumed.end()) {
      it = resumed
               .emplace(customer, core::StabilityMonitor::Make(
                                      options.scorer, options.policy)
                                      .ValueOrDie())
               .first;
    }
    const auto record = [&](std::vector<core::StabilityAlert> alerts) {
      for (core::StabilityAlert& alert : alerts) {
        resumed_alerts.push_back(FleetAlert{customer, 0, alert});
      }
    };
    const std::span<const Receipt> history =
        dataset.store().History(customer);
    for (const Receipt& receipt : history.subspan(early_count(customer))) {
      record(
          it->second.Observe(receipt.day, symbols_of(receipt)).ValueOrDie());
    }
    record(it->second.Finish().ValueOrDie());
  }
  EXPECT_FALSE(resumed_alerts.empty());
  EXPECT_EQ(Keys(resumed_alerts), Keys(fleet_late_alerts));
  EXPECT_EQ(Keys(resumed_alerts), Keys(reference_late_alerts));
}

// The end-of-stream shard frames of the independent reference: one raw
// StabilityMonitor per customer, fed its whole history and finished, laid
// out as SaveShardState would (slots in order of first appearance in the
// stream).
std::vector<std::string> MonitorEndFrames(const FleetOptions& options) {
  const retail::Dataset& dataset = TestDataset();
  auto mapper = core::SymbolMapper::Make(options.granularity,
                                         &dataset.taxonomy())
                    .ValueOrDie();
  std::map<CustomerId, std::string> end_state;
  for (const CustomerId customer : dataset.store().Customers()) {
    auto monitor =
        core::StabilityMonitor::Make(options.scorer, options.policy)
            .ValueOrDie();
    for (const Receipt& receipt : dataset.store().History(customer)) {
      EXPECT_TRUE(
          monitor.Observe(receipt.day, SymbolsOf(mapper, receipt)).ok());
    }
    EXPECT_TRUE(monitor.Finish().ok());
    end_state[customer] = SavedState(monitor);
  }
  std::vector<std::vector<CustomerId>> slots(options.num_shards);
  std::set<CustomerId> seen;
  for (const Receipt& receipt : ReplayStream()) {
    if (seen.insert(receipt.customer).second) {
      slots[StableHash(receipt.customer) % options.num_shards].push_back(
          receipt.customer);
    }
  }
  std::vector<std::string> frames;
  for (const std::vector<CustomerId>& shard_slots : slots) {
    frames.push_back(MonitorShardFrame(shard_slots, end_state));
  }
  return frames;
}

TEST(ServeDeterminism, BatchSizesAroundThePrefetchDistances) {
  // With one shard a batch of N receipts is one per-shard list of N, so
  // batches of 1..40 receipts cover lists shorter than, equal to and longer
  // than every stage of the pipelined apply loop; four shards split them
  // into shorter lists still. Every batching must reproduce the one-batch
  // replay's alerts (batch_index rebased to the stream) and snapshot, and
  // the independent monitors' shard frames.
  const std::vector<Receipt>& stream = ReplayStream();
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    const FleetOptions options = TestOptions(/*num_threads=*/1, shards);
    const auto replay = [&](size_t batch_size) {
      auto fleet =
          ScoringFleet::Make(options, &TestDataset().taxonomy()).ValueOrDie();
      std::vector<FleetAlert> alerts;
      for (size_t begin = 0; begin < stream.size(); begin += batch_size) {
        const size_t size = std::min(batch_size, stream.size() - begin);
        const BatchReport report =
            fleet
                .IngestBatch(
                    std::span<const Receipt>(stream.data() + begin, size))
                .ValueOrDie();
        EXPECT_TRUE(report.rejected.empty());
        for (FleetAlert alert : report.alerts) {
          alert.batch_index += begin;
          alerts.push_back(alert);
        }
      }
      const BatchReport tail = fleet.FinishAll().ValueOrDie();
      alerts.insert(alerts.end(), tail.alerts.begin(), tail.alerts.end());
      return std::make_pair(FormatAlerts(alerts), SnapshotOf(fleet));
    };
    const auto [one_batch_alerts, one_batch_snapshot] = replay(stream.size());
    EXPECT_FALSE(one_batch_alerts.empty());
    EXPECT_EQ(ShardFrames(one_batch_snapshot, options),
              MonitorEndFrames(options))
        << shards << " shards";
    for (size_t batch_size = 1; batch_size <= 40; ++batch_size) {
      const auto [alerts, snapshot] = replay(batch_size);
      EXPECT_EQ(alerts, one_batch_alerts)
          << shards << " shards, batches of " << batch_size;
      EXPECT_EQ(snapshot, one_batch_snapshot)
          << shards << " shards, batches of " << batch_size;
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace churnlab
