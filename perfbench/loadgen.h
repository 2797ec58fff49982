// Helpers shared by the benchmark's programs: the customer partitioner,
// request encoding, a blocking HTTP/1.1 client connection, and the
// in-process replay the benchmark uses as its oracle.
//
// Everything here reaches the scoring system through the public facade
// (src/churnlab.h) only, so the e2e client keeps building when internal
// layers are reshaped.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "churnlab.h"
#include "common/macros.h"

namespace perfbench {

namespace api = churnlab::api;
using churnlab::Result;
using churnlab::Status;
using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Splits the receipts into `parts` streams by `customer % parts`. Each
/// stream is in day order; receipts of one day keep their input order, so a
/// customer's receipts stay chronological and in the order serve-replay
/// would apply them.
std::vector<std::vector<api::Receipt>> PartitionByCustomer(
    std::span<const api::Receipt> receipts, size_t parts);

/// The receipts in serve-replay's order: copied, then stable-sorted by day.
std::vector<api::Receipt> DayOrdered(std::span<const api::Receipt> receipts);

/// The JSON body of POST /v1/ingest for `receipts` (docs/API.md).
std::string EncodeIngestBody(std::span<const api::Receipt> receipts);

/// Full HTTP/1.1 request bytes (request line, headers, body).
std::string EncodeHttpRequest(std::string_view method, std::string_view path,
                              std::string_view body);

/// One POST /v1/ingest request of a partition, encoded ahead of time.
struct IngestRequest {
  size_t first = 0;  ///< index of its first receipt in the partition
  size_t count = 0;
  std::string bytes;
};

/// Slices a partition into requests of at most `per_request` receipts.
std::vector<IngestRequest> EncodeRequests(
    const std::vector<api::Receipt>& partition, size_t per_request);

/// The integer value of `"key":` in a flat JSON document, if present.
std::optional<int64_t> JsonInt(std::string_view json, std::string_view key);

/// True when `"key":[]` (an empty array) appears in the document.
bool JsonEmptyArray(std::string_view json, std::string_view key);

/// Number of objects in the array under `"key":` ("[{...},{...}]"), counted
/// by top-level braces.
size_t JsonArrayObjects(std::string_view json, std::string_view key);

struct HttpResponse {
  int status = 0;
  std::string body;
};

/// A blocking keep-alive client connection with TCP_NODELAY set.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  Status Connect(uint16_t port);
  /// Writes one request and reads its whole response.
  Result<HttpResponse> RoundTrip(std::string_view request);

 private:
  Status ReadMore();

  int fd_ = -1;
  std::string buffer_;
};

/// Everything the load phase sends, encoded before it starts.
struct LoadPlan {
  /// One closed-loop stream of ingest requests per customer partition.
  std::vector<std::vector<IngestRequest>> requests;
  double encode_s = 0.0;
};

/// Encodes the history's receipts as `parts` partitions of
/// `per_request`-receipt requests.
Result<LoadPlan> PlanLoad(const api::Dataset& dataset, size_t parts,
                          size_t per_request);

/// One ingest request as the client saw it.
struct IngestRecord {
  double sent_s = 0.0;
  double done_s = 0.0;
  int status = 0;
  std::string body;
};

struct LoadRun {
  std::vector<std::vector<IngestRecord>> records;  ///< per partition
  double ingest_s = 0.0;  ///< phase start to the last ingest reply
};

/// The timed phase: one thread and keep-alive connection per partition
/// sends its requests back to back. All connections are closed on return.
Result<LoadRun> RunLoad(uint16_t port, const LoadPlan& plan);

/// The load phase's timings as the fields of a JSON object (no braces),
/// in seconds from the phase start: "ingest_s"; "ingest_rows", one
/// [sent, done, receipts acked] per request.
std::string LoadRowsJson(const LoadRun& run);

/// An acknowledged ingest request.
struct Ack {
  uint64_t sequence = 0;
  size_t part = 0;
  size_t index = 0;  ///< request index within the partition
};

/// What the replies of a load phase say, read after it ended.
struct LoadSummary {
  size_t requests = 0;
  size_t refused = 0;  ///< non-200 replies, 429 sheds included
  size_t shed = 0;
  size_t acked_receipts = 0;
  size_t rejected_receipts = 0;
  size_t poisoned_replies = 0;
  size_t alerts = 0;
  std::vector<Ack> acks;
};

Result<LoadSummary> Summarize(const LoadPlan& plan, const LoadRun& run);

/// Fleet options of `churnlab serve-replay` / `serve-http` at their
/// defaults, with `threads` fleet worker threads.
api::FleetOptions CliFleetOptions(size_t threads);

/// Timings of one in-process replay (filled when non-null).
struct ReplayTimings {
  double order_s = 0.0;
  double finish_s = 0.0;
  std::vector<double> batch_us;
  std::vector<size_t> batch_receipts;
};

/// Outcome of an in-process replay.
struct ReplayOutcome {
  size_t receipts = 0;
  size_t batches = 0;
  size_t alerts = 0;
  size_t rejected = 0;
};

/// Replays the history the way `churnlab serve-replay` does: day order,
/// `batch_days`-day batches, then FinishAll.
Result<ReplayOutcome> ReplayInProcess(const api::Dataset& dataset,
                                      api::FleetHandle* fleet,
                                      api::Day batch_days,
                                      ReplayTimings* timings);

/// Reads a whole file; an empty optional when it cannot be read.
std::optional<std::string> ReadFile(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
