// perfbench_client: the benchmark's side of the e2e workloads.
//
//   perfbench_client load --data H.clb [--ingest-connections 2]
//       [--request-receipts 256] --out PREFIX
//     Reads the history, encodes every POST /v1/ingest request and prints
//     "ready". Then, for every server port read from stdin (one a line, a
//     fresh server each), runs one pass: the timed phase streams every
//     request over closed-loop keep-alive connections, one per customer
//     partition; afterwards it writes the pass's per-request timings and
//     the server's health to PREFIX-K.json and its acknowledgements to
//     PREFIX-K.acks (K counts passes from 0) and prints "done K".
//
//   perfbench_client verify --data H.clb --acks acks.txt --snapshot S
//       --out oracle.snap [--ingest-connections 2]
//     Replays the acknowledged requests in-process in response-sequence
//     order and checks the server's drain snapshot is byte-identical.
//
//   perfbench_client replay-oracle --data H.clb
//     The in-process replay serve-replay performs; prints its counts.
//
// Results are one JSON object on stdout (load also writes it to --out).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "loadgen.h"

namespace perfbench {
namespace {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) values_[argv[i]] = argv[i + 1];
  }
  std::string Str(const std::string& name, const std::string& fallback) const {
    const auto it = values_.find("--" + name);
    return it == values_.end() ? fallback : it->second;
  }
  int64_t Int(const std::string& name, int64_t fallback) const {
    const auto it = values_.find("--" + name);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

/// One pass against the server at `port`; writes PREFIX-K.json and
/// PREFIX-K.acks.
Status LoadPass(const LoadPlan& plan, uint16_t port, double load_s,
                const std::string& prefix) {
  CHURNLAB_ASSIGN_OR_RETURN(const LoadRun run, RunLoad(port, plan));

  // Outside the timed phase: read the replies and the server's health.
  CHURNLAB_ASSIGN_OR_RETURN(const LoadSummary summary, Summarize(plan, run));
  std::ofstream acks(prefix + ".acks");
  for (const Ack& ack : summary.acks) {
    const IngestRequest& request = plan.requests[ack.part][ack.index];
    acks << ack.sequence << ' ' << ack.part << ' ' << request.first << ' '
         << request.count << '\n';
  }
  acks.close();
  Connection health_conn;
  CHURNLAB_RETURN_NOT_OK(health_conn.Connect(port));
  CHURNLAB_ASSIGN_OR_RETURN(
      const HttpResponse health,
      health_conn.RoundTrip(EncodeHttpRequest("GET", "/v1/health", "")));
  const auto receipts_total = JsonInt(health.body, "receipts_total");
  if (health.status != 200 || !receipts_total) {
    return Status::Internal("bad /v1/health reply: " + health.body);
  }
  size_t shard_rejected = 0;
  for (size_t at = health.body.find("\"rejected\":"); at != std::string::npos;
       at = health.body.find("\"rejected\":", at + 1)) {
    shard_rejected += static_cast<size_t>(
        std::atoll(health.body.c_str() + at + std::strlen("\"rejected\":")));
  }

  char head[1024];
  std::snprintf(
      head, sizeof(head),
      "{\"load_s\":%.6f,\"encode_s\":%.6f,"
      "\"requests\":%zu,\"refused\":%zu,\"shed\":%zu,"
      "\"acked_receipts\":%zu,\"rejected_receipts\":%zu,"
      "\"poisoned_replies\":%zu,\"alerts\":%zu,"
      "\"health_receipts_total\":%lld,\"health_rejected\":%zu,",
      load_s, plan.encode_s, summary.requests, summary.refused,
      summary.shed, summary.acked_receipts, summary.rejected_receipts,
      summary.poisoned_replies, summary.alerts,
      static_cast<long long>(*receipts_total), shard_rejected);
  if (!(std::ofstream(prefix + ".json") << head << LoadRowsJson(run)
                                        << "}\n")) {
    return Status::IOError("cannot write " + prefix + ".json");
  }
  return Status::OK();
}

Status Load(const Args& args) {
  const std::string out_prefix = args.Str("out", "");
  if (out_prefix.empty()) return Status::InvalidArgument("load: --out needed");
  // Set-up: read the history and encode every request before timing.
  const Clock::time_point start = Clock::now();
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset,
                            api::LoadDataset(args.Str("data", "")));
  const double load_s = SecondsBetween(start, Clock::now());
  CHURNLAB_ASSIGN_OR_RETURN(
      const LoadPlan plan,
      PlanLoad(dataset, static_cast<size_t>(args.Int("ingest-connections", 2)),
               static_cast<size_t>(args.Int("request-receipts", 256))));
  std::printf("ready\n");
  std::fflush(stdout);
  int port = 0;
  for (int pass = 0; std::scanf("%d", &port) == 1; ++pass) {
    if (port <= 0 || port > 65535) {
      return Status::InvalidArgument("bad port " + std::to_string(port));
    }
    CHURNLAB_RETURN_NOT_OK(LoadPass(plan, static_cast<uint16_t>(port), load_s,
                                    out_prefix + "-" + std::to_string(pass)));
    std::printf("done %d\n", pass);
    std::fflush(stdout);
  }
  return Status::OK();
}

Status Verify(const Args& args) {
  const auto parts = static_cast<size_t>(args.Int("ingest-connections", 2));
  const std::string oracle_path = args.Str("out", "");
  if (parts == 0 || oracle_path.empty()) {
    return Status::InvalidArgument("verify: bad or missing flags");
  }
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset,
                            api::LoadDataset(args.Str("data", "")));
  const auto partitions =
      PartitionByCustomer(dataset.store().AllReceipts(), parts);
  struct AckLine {
    uint64_t sequence;
    size_t part, first, count;
  };
  std::vector<AckLine> acks;
  std::ifstream in(args.Str("acks", ""));
  for (AckLine ack; in >> ack.sequence >> ack.part >> ack.first >> ack.count;) {
    if (ack.part >= parts ||
        ack.first + ack.count > partitions[ack.part].size()) {
      return Status::InvalidArgument("ack outside the partitions");
    }
    acks.push_back(ack);
  }
  std::sort(acks.begin(), acks.end(),
            [](const AckLine& a, const AckLine& b) {
              return a.sequence < b.sequence;
            });
  CHURNLAB_ASSIGN_OR_RETURN(
      api::FleetHandle fleet,
      api::FleetHandle::Make(CliFleetOptions(2), dataset));
  uint64_t next_sequence = acks.empty() ? 0 : acks.front().sequence;
  size_t receipts = 0;
  for (const AckLine& ack : acks) {
    if (ack.sequence != next_sequence) {
      return Status::Internal("acknowledged sequences are not contiguous at " +
                              std::to_string(ack.sequence));
    }
    next_sequence += ack.count;
    CHURNLAB_ASSIGN_OR_RETURN(
        const api::BatchReport report,
        fleet.IngestBatch(std::span<const api::Receipt>(
            partitions[ack.part].data() + ack.first, ack.count)));
    if (report.receipts_ingested != ack.count || !report.rejected.empty()) {
      return Status::Internal("offline replay rejected receipts");
    }
    receipts += ack.count;
  }
  std::remove(oracle_path.c_str());
  CHURNLAB_RETURN_NOT_OK(fleet.AppendSnapshot(oracle_path));
  const auto oracle = ReadFile(oracle_path);
  const auto served = ReadFile(args.Str("snapshot", ""));
  const bool identical = oracle && served && *oracle == *served;
  std::printf("{\"requests\":%zu,\"receipts\":%zu,\"snapshot_bytes\":%zu,"
              "\"identical\":%s}\n",
              acks.size(), receipts, served ? served->size() : 0,
              identical ? "true" : "false");
  return Status::OK();
}

Status ReplayOracle(const Args& args) {
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset,
                            api::LoadDataset(args.Str("data", "")));
  CHURNLAB_ASSIGN_OR_RETURN(
      api::FleetHandle fleet,
      api::FleetHandle::Make(CliFleetOptions(2), dataset));
  CHURNLAB_ASSIGN_OR_RETURN(
      const ReplayOutcome outcome,
      ReplayInProcess(dataset, &fleet, 7, nullptr));
  std::printf("{\"receipts\":%zu,\"alerts\":%zu,\"rejected\":%zu}\n",
              outcome.receipts, outcome.alerts, outcome.rejected);
  return Status::OK();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const perfbench::Args args(argc, argv);
  churnlab::Status status = churnlab::Status::InvalidArgument(
      "usage: perfbench_client load|verify|replay-oracle --flag value ...");
  if (command == "load") {
    status = perfbench::Load(args);
  } else if (command == "verify") {
    status = perfbench::Verify(args);
  } else if (command == "replay-oracle") {
    status = perfbench::ReplayOracle(args);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench_client: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
