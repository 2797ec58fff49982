// perfbench_trace: the traced run. It calls the public functions of each
// layer in-process and records a span around every call, so the per-layer
// metrics come from the benchmark's own code rather than spans inside the
// program.
//
//   perfbench_trace --workload replay-20k|ingest-http --seed N --work DIR
//
// Every workload times datagen, the binary save and load of the history it
// generates (DIR/h.clb). Then:
//   replay-20k   the in-process replay serve-replay performs: day-order
//                copy and sort, one IngestBatch per 7-day batch, FinishAll.
//   ingest-http  a live pass: an in-process HttpServer over a timing
//                decorator of FleetBackend, driven by the same load as the
//                e2e run; an offline pass that times parse, decode, admit,
//                journal append, IngestBatch and render for every request
//                in the live pass's sequence order, with one fsync per live
//                coalesced round; and a coalescer pass that times
//                IngestCoalescer::Ingest against the backend calls it makes.
// One JSON object of per-layer values goes to stdout.
#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "net/admission.h"
#include "net/coalescer.h"
#include "net/http.h"
#include "net/json_codec.h"
#include "net/server.h"
#include "serve/journal.h"

namespace perfbench {
namespace {

namespace net = churnlab::net;
namespace serve = churnlab::serve;

constexpr size_t kHistoryCustomers = 10000;  // per cohort
constexpr size_t kRequestReceipts = 256;

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p / 100.0 * values.size() + 0.999999);
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double value : values) sum += value;
  return sum;
}

/// Wraps the server's backend and records every ingest call it forwards.
class TimedBackend final : public net::ScoringBackend {
 public:
  struct IngestCall {
    uint64_t first_sequence = 0;
    size_t receipts = 0;
    double us = 0.0;
  };

  explicit TimedBackend(net::ScoringBackend* inner) : inner_(inner) {}

  Result<serve::BatchReport> Ingest(
      uint64_t first_sequence,
      std::span<const api::Receipt> receipts) override {
    const Clock::time_point start = Clock::now();
    Result<serve::BatchReport> report =
        inner_->Ingest(first_sequence, receipts);
    const double us = SecondsBetween(start, Clock::now()) * 1e6;
    std::lock_guard<std::mutex> lock(mutex_);
    ingest_calls_.push_back({first_sequence, receipts.size(), us});
    return report;
  }
  Result<serve::CustomerQuery> Customer(api::CustomerId customer) override {
    return inner_->Customer(customer);
  }
  Result<serve::FleetHealth> Health() override { return inner_->Health(); }
  Result<serve::StateMemoryStats> Memory() override {
    return inner_->Memory();
  }
  Result<std::string> Snapshot() override { return inner_->Snapshot(); }

  /// Call only once no request is in flight.
  const std::vector<IngestCall>& ingest_calls() const { return ingest_calls_; }

  /// Duration of the call whose sequence range holds `sequence`.
  double CallUsCovering(uint64_t sequence) const {
    const auto it = std::upper_bound(
        ingest_calls_.begin(), ingest_calls_.end(), sequence,
        [](uint64_t s, const IngestCall& call) {
          return s < call.first_sequence;
        });
    return it == ingest_calls_.begin() ? 0.0 : std::prev(it)->us;
  }

 private:
  net::ScoringBackend* inner_;
  std::mutex mutex_;
  std::vector<IngestCall> ingest_calls_;
};

uint64_t SegmentBytes(const std::string& directory) {
  uint64_t bytes = 0;
  DIR* dir = ::opendir(directory.c_str());
  if (dir == nullptr) return 0;
  while (const dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    struct stat info {};
    if (name.size() > 5 && name.substr(name.size() - 5) == ".chlj" &&
        ::stat((directory + "/" + name).c_str(), &info) == 0) {
      bytes += static_cast<uint64_t>(info.st_size);
    }
  }
  ::closedir(dir);
  return bytes;
}

Result<serve::IngestJournal> OpenJournal(const std::string& directory,
                                         serve::FsyncPolicy fsync) {
  ::mkdir(directory.c_str(), 0755);
  serve::JournalOptions options;
  options.directory = directory;
  options.fsync = fsync;
  return serve::IngestJournal::Open(options);
}

/// A fresh fleet as serve-http holds it.
Result<serve::ScoringFleet> ServerFleet(const api::Dataset& dataset) {
  return serve::ScoringFleet::Make(CliFleetOptions(1), &dataset.taxonomy());
}

using Layers = std::map<std::string, double>;

Status TraceReplay(const api::Dataset& dataset, Layers* layers) {
  CHURNLAB_ASSIGN_OR_RETURN(
      api::FleetHandle fleet,
      api::FleetHandle::Make(CliFleetOptions(2), dataset));
  ReplayTimings timings;
  CHURNLAB_ASSIGN_OR_RETURN(
      const ReplayOutcome outcome,
      ReplayInProcess(dataset, &fleet, 7, &timings));
  const api::StateMemoryStats memory = fleet.Memory();
  double receipts = 0.0;
  for (const size_t count : timings.batch_receipts) receipts += count;
  Layers& out = *layers;
  out["replay.order_s"] = timings.order_s;
  out["serve.ingest_batch_s"] = Sum(timings.batch_us) / 1e6;
  out["serve.ingest_batch_p50_us"] = Median(timings.batch_us);
  out["serve.ingest_batch_p99_us"] = Percentile(timings.batch_us, 99);
  out["serve.batch_receipts"] = receipts / timings.batch_us.size();
  out["serve.finish_all_s"] = timings.finish_s;
  out["serve.rejected_receipts"] = static_cast<double>(outcome.rejected);
  out["serve.state_bytes_per_customer"] =
      static_cast<double>(memory.total_bytes) / memory.customers;
  out["replay.receipts"] = static_cast<double>(outcome.receipts);
  out["replay.alerts"] = static_cast<double>(outcome.alerts);
  return Status::OK();
}

Status TraceHttp(const api::Dataset& dataset, const std::string& work,
                 Layers* layers) {
  Layers& out = *layers;
  constexpr size_t parts = 2;
  CHURNLAB_ASSIGN_OR_RETURN(const LoadPlan plan,
                            PlanLoad(dataset, parts, kRequestReceipts));
  out["client.encode_s"] = plan.encode_s;

  // Live pass: the server as serve-http assembles it, with the timing
  // decorator between the server and FleetBackend.
  CHURNLAB_ASSIGN_OR_RETURN(serve::ScoringFleet live_fleet,
                            ServerFleet(dataset));
  CHURNLAB_ASSIGN_OR_RETURN(
      serve::IngestJournal live_journal,
      OpenJournal(work + "/journal-live", serve::FsyncPolicy::kNone));
  net::FleetBackend backend(&live_fleet,
                            {work + "/live.snap", true, &live_journal});
  TimedBackend timed(&backend);
  net::ServerOptions server_options;
  server_options.num_threads = parts;
  server_options.coalescer.first_sequence = live_journal.next_sequence();
  CHURNLAB_ASSIGN_OR_RETURN(std::unique_ptr<net::HttpServer> server,
                            net::HttpServer::Make(server_options, &timed));
  CHURNLAB_RETURN_NOT_OK(server->Start());
  Result<LoadRun> run = RunLoad(server->port(), plan);
  const uint64_t journal_bytes = SegmentBytes(work + "/journal-live");
  const api::StateMemoryStats memory = live_fleet.MemoryUsage();
  CHURNLAB_RETURN_NOT_OK(server->Shutdown());
  CHURNLAB_RETURN_NOT_OK(run.status());
  CHURNLAB_ASSIGN_OR_RETURN(const LoadSummary summary, Summarize(plan, *run));
  const size_t expected = dataset.store().AllReceipts().size();
  out["live.requests"] = static_cast<double>(summary.requests);
  out["live.failed"] = static_cast<double>(
      summary.refused + summary.rejected_receipts + summary.poisoned_replies);
  out["live.unacked_receipts"] =
      static_cast<double>(expected - summary.acked_receipts);
  out["net.shed"] = static_cast<double>(summary.shed);
  out["net.requests_per_batch"] =
      static_cast<double>(summary.requests) / timed.ingest_calls().size();
  std::vector<double> backend_ingest_us;
  // The sequence that follows each live coalesced round: where the offline
  // pass syncs, as the backend does under --journal-fsync batch.
  std::set<uint64_t> round_ends;
  for (const auto& call : timed.ingest_calls()) {
    backend_ingest_us.push_back(call.us);
    round_ends.insert(call.first_sequence + call.receipts);
  }
  out["net.backend_ingest_us"] = Median(backend_ingest_us);
  out["journal.bytes_per_receipt"] =
      static_cast<double>(journal_bytes) / summary.acked_receipts;
  out["serve.state_bytes_per_customer"] =
      static_cast<double>(memory.total_bytes) / memory.customers;
  // run.py summarizes the live pass's e2e numbers the same way as an
  // untraced run's.
  if (!(std::ofstream(work + "/live.json")
        << "{" << LoadRowsJson(*run) << "}\n")) {
    return Status::IOError("cannot write " + work + "/live.json");
  }

  // Offline pass: each layer's call timed on the same requests, applied in
  // the live pass's sequence order to a second fleet and journal.
  CHURNLAB_ASSIGN_OR_RETURN(serve::ScoringFleet fleet, ServerFleet(dataset));
  CHURNLAB_ASSIGN_OR_RETURN(
      serve::IngestJournal journal,
      OpenJournal(work + "/journal-offline", serve::FsyncPolicy::kBatch));
  net::AdmissionGate gate(server_options.admission);
  std::vector<double> parse_us, decode_us, admit_us, append_us, ingest_us,
      sync_us, render_us, attributed_us;
  std::vector<std::vector<std::vector<api::Receipt>>> decoded(parts);
  for (size_t part = 0; part < parts; ++part) {
    decoded[part].resize(plan.requests[part].size());
  }
  size_t rejected = 0;
  for (const Ack& ack : summary.acks) {
    const IngestRequest& request = plan.requests[ack.part][ack.index];
    Clock::time_point t0 = Clock::now();
    net::HttpParser parser(server_options.limits);
    CHURNLAB_RETURN_NOT_OK(parser.Feed(request.bytes));
    if (!parser.HasRequest()) return Status::Internal("request not parsed");
    const net::HttpRequest parsed = parser.TakeRequest();
    Clock::time_point t1 = Clock::now();
    CHURNLAB_ASSIGN_OR_RETURN(
        std::vector<api::Receipt> receipts,
        net::ParseReceiptBatch(parsed.body,
                               server_options.max_receipts_per_request));
    Clock::time_point t2 = Clock::now();
    {
      CHURNLAB_ASSIGN_OR_RETURN(const net::AdmissionGate::Ticket ticket,
                                gate.Admit(parsed.body.size()));
    }
    Clock::time_point t3 = Clock::now();
    CHURNLAB_RETURN_NOT_OK(journal.Append(ack.sequence, receipts));
    Clock::time_point t4 = Clock::now();
    CHURNLAB_ASSIGN_OR_RETURN(const serve::BatchReport report,
                              fleet.IngestBatch(receipts));
    Clock::time_point t5 = Clock::now();
    if (round_ends.count(ack.sequence + request.count) > 0) {
      CHURNLAB_RETURN_NOT_OK(journal.Sync());
      sync_us.push_back(SecondsBetween(t5, Clock::now()) * 1e6);
    }
    Clock::time_point t6 = Clock::now();
    const std::string rendered =
        net::WriteBatchReportJson(report, ack.sequence);
    Clock::time_point t7 = Clock::now();
    rejected += report.rejected.size();
    parse_us.push_back(SecondsBetween(t0, t1) * 1e6);
    decode_us.push_back(SecondsBetween(t1, t2) * 1e6);
    admit_us.push_back(SecondsBetween(t2, t3) * 1e6);
    append_us.push_back(SecondsBetween(t3, t4) * 1e6);
    ingest_us.push_back(SecondsBetween(t4, t5) * 1e6);
    render_us.push_back(SecondsBetween(t6, t7) * 1e6);
    attributed_us.push_back(parse_us.back() + decode_us.back() +
                            admit_us.back() + render_us.back() +
                            timed.CallUsCovering(ack.sequence));
    decoded[ack.part][ack.index] = std::move(receipts);
  }
  journal.Close();
  out["net.parse_us"] = Median(parse_us);
  out["net.decode_us"] = Median(decode_us);
  out["net.admit_us"] = Median(admit_us);
  out["net.render_us"] = Median(render_us);
  out["journal.append_us"] = Median(append_us);
  out["journal.sync_us"] = Median(sync_us);
  out["journal.syncs"] = static_cast<double>(sync_us.size());
  out["serve.ingest_batch_s"] = Sum(ingest_us) / 1e6;
  out["serve.ingest_batch_p50_us"] = Median(ingest_us);
  out["serve.ingest_batch_p99_us"] = Percentile(ingest_us, 99);
  out["serve.batch_receipts"] =
      static_cast<double>(summary.acked_receipts) / summary.acks.size();
  out["serve.rejected_receipts"] = static_cast<double>(rejected);

  // Unexplained share of the live pass: request time (from the send) not
  // covered by the offline layer times plus the backend call that applied
  // the request.
  double latency_us = 0.0;
  for (const Ack& ack : summary.acks) {
    const IngestRecord& record = run->records[ack.part][ack.index];
    latency_us += (record.done_s - record.sent_s) * 1e6;
  }
  out["unattributed_share"] = 1.0 - Sum(attributed_us) / latency_us;

  // Coalescer pass: per request, the time IngestCoalescer::Ingest spends
  // outside the backend call that applied it.
  CHURNLAB_ASSIGN_OR_RETURN(serve::ScoringFleet coalesced_fleet,
                            ServerFleet(dataset));
  CHURNLAB_ASSIGN_OR_RETURN(
      serve::IngestJournal coalesced_journal,
      OpenJournal(work + "/journal-coalesce", serve::FsyncPolicy::kNone));
  net::FleetBackend coalesced_backend(
      &coalesced_fleet, {work + "/coalesce.snap", true, &coalesced_journal});
  TimedBackend coalesced_timed(&coalesced_backend);
  net::IngestCoalescer coalescer(server_options.coalescer, &coalesced_timed);
  std::vector<std::vector<std::pair<uint64_t, double>>> waits(parts);
  std::vector<Status> failures(parts);
  std::vector<std::thread> threads;
  for (size_t part = 0; part < parts; ++part) {
    threads.emplace_back([&, part] {
      for (std::vector<api::Receipt>& receipts : decoded[part]) {
        const Clock::time_point start = Clock::now();
        Result<net::IngestCoalescer::Outcome> outcome =
            coalescer.Ingest(std::move(receipts));
        const double us = SecondsBetween(start, Clock::now()) * 1e6;
        if (!outcome.ok()) {
          failures[part] = outcome.status();
          return;
        }
        waits[part].emplace_back(outcome->first_sequence, us);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Status& failure : failures) CHURNLAB_RETURN_NOT_OK(failure);
  std::vector<double> coalesce_wait_us;
  for (const auto& part : waits) {
    for (const auto& [sequence, us] : part) {
      coalesce_wait_us.push_back(us -
                                 coalesced_timed.CallUsCovering(sequence));
    }
  }
  out["net.coalesce_wait_us"] = Median(coalesce_wait_us);
  return Status::OK();
}

Status Trace(const std::string& workload, uint64_t seed,
             const std::string& work) {
  Layers layers;
  const std::string history = work + "/h.clb";
  {
    api::ScenarioConfig config;
    config.population.num_loyal = kHistoryCustomers;
    config.population.num_defecting = kHistoryCustomers;
    config.num_months = 28;
    config.population.attrition.onset_month = 18;
    config.seed = seed;
    Clock::time_point start = Clock::now();
    CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset generated,
                              api::MakeScenario(config));
    layers["datagen.simulate_s"] = SecondsBetween(start, Clock::now());
    start = Clock::now();
    CHURNLAB_RETURN_NOT_OK(generated.SaveBinary(history));
    layers["retail.save_binary_s"] = SecondsBetween(start, Clock::now());
  }
  const Clock::time_point start = Clock::now();
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset,
                            api::LoadDataset(history));
  const double load_s = SecondsBetween(start, Clock::now());
  layers["retail.load_binary_s"] = load_s;
  layers["retail.load_receipts_per_s"] =
      dataset.store().AllReceipts().size() / load_s;
  layers["history.receipts"] =
      static_cast<double>(dataset.store().AllReceipts().size());
  if (workload == "replay-20k") {
    CHURNLAB_RETURN_NOT_OK(TraceReplay(dataset, &layers));
  } else if (workload == "ingest-http") {
    CHURNLAB_RETURN_NOT_OK(TraceHttp(dataset, work, &layers));
  } else {
    return Status::InvalidArgument("unknown workload '" + workload + "'");
  }
  std::string json = "{";
  char entry[160];
  for (const auto& [name, value] : layers) {
    std::snprintf(entry, sizeof(entry), "%s\"%s\":%.9g",
                  json.size() > 1 ? "," : "", name.c_str(), value);
    json += entry;
  }
  std::printf("%s}\n", json.c_str());
  return Status::OK();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  if (!flags.count("--workload") || !flags.count("--work")) {
    std::fprintf(stderr,
                 "usage: perfbench_trace --workload W --seed N --work DIR\n");
    return 2;
  }
  const churnlab::Status status = perfbench::Trace(
      flags["--workload"],
      static_cast<uint64_t>(std::atoll(flags["--seed"].c_str())),
      flags["--work"]);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench_trace: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
