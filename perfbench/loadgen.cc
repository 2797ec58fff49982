#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <thread>

namespace perfbench {

std::vector<api::Receipt> DayOrdered(std::span<const api::Receipt> receipts) {
  std::vector<api::Receipt> ordered(receipts.begin(), receipts.end());
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const api::Receipt& a, const api::Receipt& b) {
                     return a.day < b.day;
                   });
  return ordered;
}

std::vector<std::vector<api::Receipt>> PartitionByCustomer(
    std::span<const api::Receipt> receipts, size_t parts) {
  std::vector<std::vector<api::Receipt>> partitions(parts);
  for (api::Receipt& receipt : DayOrdered(receipts)) {
    partitions[receipt.customer % parts].push_back(std::move(receipt));
  }
  return partitions;
}

std::string EncodeIngestBody(std::span<const api::Receipt> receipts) {
  std::string body = "{\"receipts\":[";
  char number[48];
  const auto append = [&body, &number](auto value) {
    body.append(number,
                std::to_chars(number, number + sizeof(number), value).ptr);
  };
  for (size_t i = 0; i < receipts.size(); ++i) {
    const api::Receipt& receipt = receipts[i];
    if (i > 0) body += ',';
    body += "{\"customer\":";
    append(receipt.customer);
    body += ",\"day\":";
    append(receipt.day);
    // The shortest form that round-trips, so the server scores the spend
    // bits the offline replay reads from the dataset.
    body += ",\"spend\":";
    append(receipt.spend);
    body += ",\"items\":[";
    for (size_t j = 0; j < receipt.items.size(); ++j) {
      if (j > 0) body += ',';
      append(receipt.items[j]);
    }
    body += "]}";
  }
  body += "]}";
  return body;
}

std::string EncodeHttpRequest(std::string_view method, std::string_view path,
                              std::string_view body) {
  std::string request;
  request.reserve(body.size() + 128);
  request.append(method).append(" ").append(path).append(
      " HTTP/1.1\r\nHost: perfbench\r\n");
  if (!body.empty()) {
    request.append("Content-Type: application/json\r\nContent-Length: ")
        .append(std::to_string(body.size()))
        .append("\r\n");
  }
  request.append("\r\n").append(body);
  return request;
}

std::vector<IngestRequest> EncodeRequests(
    const std::vector<api::Receipt>& partition, size_t per_request) {
  std::vector<IngestRequest> requests;
  for (size_t first = 0; first < partition.size(); first += per_request) {
    const size_t count = std::min(per_request, partition.size() - first);
    IngestRequest request;
    request.first = first;
    request.count = count;
    request.bytes = EncodeHttpRequest(
        "POST", "/v1/ingest",
        EncodeIngestBody(std::span<const api::Receipt>(
            partition.data() + first, count)));
    requests.push_back(std::move(request));
  }
  return requests;
}

namespace {

/// Position just past `"key":` or npos.
size_t ValueStart(std::string_view json, std::string_view key) {
  const std::string marker = "\"" + std::string(key) + "\":";
  const size_t at = json.find(marker);
  return at == std::string_view::npos ? at : at + marker.size();
}

}  // namespace

std::optional<int64_t> JsonInt(std::string_view json, std::string_view key) {
  const size_t start = ValueStart(json, key);
  if (start == std::string_view::npos) return std::nullopt;
  const std::string digits(json.substr(start, 24));
  char* end = nullptr;
  const long long value = std::strtoll(digits.c_str(), &end, 10);
  if (end == digits.c_str()) return std::nullopt;
  return static_cast<int64_t>(value);
}

bool JsonEmptyArray(std::string_view json, std::string_view key) {
  const size_t start = ValueStart(json, key);
  return start != std::string_view::npos &&
         json.substr(start, 2) == std::string_view("[]");
}

size_t JsonArrayObjects(std::string_view json, std::string_view key) {
  size_t at = ValueStart(json, key);
  if (at == std::string_view::npos || at >= json.size() || json[at] != '[') {
    return 0;
  }
  size_t objects = 0;
  int depth = 0;
  bool in_string = false;
  for (++at; at < json.size(); ++at) {
    const char c = json[at];
    if (in_string) {
      if (c == '\\') {
        ++at;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      if (depth == 0 && c == '{') ++objects;
      ++depth;
    } else if (c == '}' || c == ']') {
      if (depth == 0) break;
      --depth;
    }
  }
  return objects;
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

Status Connection::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  // Requests are written whole; without TCP_NODELAY the last segment of one
  // could wait on Nagle's algorithm and the client would measure its own
  // delay.
  const int one = 1;
  if (::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Status::IOError(std::string("TCP_NODELAY: ") +
                           std::strerror(errno));
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    return Status::IOError("connect 127.0.0.1:" + std::to_string(port) +
                           ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status Connection::ReadMore() {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      return Status::OK();
    }
    if (n == 0) return Status::IOError("server closed the connection");
    if (errno != EINTR) {
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
  }
}

Result<HttpResponse> Connection::RoundTrip(std::string_view request) {
  for (size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  size_t header_end;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    CHURNLAB_RETURN_NOT_OK(ReadMore());
  }
  HttpResponse response;
  if (std::sscanf(buffer_.c_str(), "HTTP/1.%*d %d", &response.status) != 1) {
    return Status::IOError("malformed HTTP status line");
  }
  std::string headers = buffer_.substr(0, header_end);
  std::transform(headers.begin(), headers.end(), headers.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  size_t content_length = 0;
  const size_t field = headers.find("content-length:");
  if (field != std::string::npos) {
    content_length = static_cast<size_t>(std::strtoull(
        headers.c_str() + field + std::strlen("content-length:"), nullptr,
        10));
  }
  buffer_.erase(0, header_end + 4);
  while (buffer_.size() < content_length) {
    CHURNLAB_RETURN_NOT_OK(ReadMore());
  }
  response.body = buffer_.substr(0, content_length);
  buffer_.erase(0, content_length);
  return response;
}

Result<LoadPlan> PlanLoad(const api::Dataset& dataset, size_t parts,
                          size_t per_request) {
  if (parts == 0 || per_request == 0) {
    return Status::InvalidArgument("empty load plan");
  }
  const Clock::time_point start = Clock::now();
  LoadPlan plan;
  const auto partitions =
      PartitionByCustomer(dataset.store().AllReceipts(), parts);
  for (size_t part = 0; part < parts; ++part) {
    plan.requests.push_back(EncodeRequests(partitions[part], per_request));
  }
  plan.encode_s = SecondsBetween(start, Clock::now());
  return plan;
}

Result<LoadRun> RunLoad(uint16_t port, const LoadPlan& plan) {
  const size_t parts = plan.requests.size();
  std::vector<std::unique_ptr<Connection>> connections;
  for (size_t i = 0; i < parts; ++i) {
    connections.push_back(std::make_unique<Connection>());
    CHURNLAB_RETURN_NOT_OK(connections.back()->Connect(port));
  }
  LoadRun run;
  run.records.resize(parts);
  std::vector<Status> failures(parts);
  const Clock::time_point phase_start = Clock::now();
  const auto now = [phase_start] {
    return SecondsBetween(phase_start, Clock::now());
  };
  std::vector<std::thread> threads;
  for (size_t part = 0; part < parts; ++part) {
    threads.emplace_back([&, part] {
      std::vector<IngestRecord>& records = run.records[part];
      records.reserve(plan.requests[part].size());
      for (const IngestRequest& request : plan.requests[part]) {
        IngestRecord record;
        record.sent_s = now();
        Result<HttpResponse> response =
            connections[part]->RoundTrip(request.bytes);
        record.done_s = now();
        if (!response.ok()) {
          failures[part] = response.status();
          break;
        }
        record.status = response->status;
        record.body = std::move(response->body);
        records.push_back(std::move(record));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Status& failure : failures) CHURNLAB_RETURN_NOT_OK(failure);
  for (const auto& records : run.records) {
    if (!records.empty()) {
      run.ingest_s = std::max(run.ingest_s, records.back().done_s);
    }
  }
  return run;
}

namespace {

void AppendRow(std::initializer_list<double> values, std::string* out) {
  char number[32];
  *out += out->back() == '[' ? "[" : ",[";
  const char* separator = "";
  for (const double value : values) {
    std::snprintf(number, sizeof(number), "%s%.9f", separator, value);
    *out += number;
    separator = ",";
  }
  *out += ']';
}

}  // namespace

std::string LoadRowsJson(const LoadRun& run) {
  char ingest_s[48];
  std::snprintf(ingest_s, sizeof(ingest_s), "\"ingest_s\":%.6f", run.ingest_s);
  std::string out = std::string(ingest_s) + ",\"ingest_rows\":[";
  for (const auto& records : run.records) {
    for (const IngestRecord& record : records) {
      const auto acked = record.status == 200
                             ? JsonInt(record.body, "receipts_ingested")
                             : std::nullopt;
      AppendRow({record.sent_s, record.done_s,
                 static_cast<double>(acked.value_or(0))},
                &out);
    }
  }
  return out + "]";
}

Result<LoadSummary> Summarize(const LoadPlan& plan, const LoadRun& run) {
  LoadSummary summary;
  for (size_t part = 0; part < run.records.size(); ++part) {
    for (size_t i = 0; i < run.records[part].size(); ++i) {
      const IngestRecord& record = run.records[part][i];
      const IngestRequest& request = plan.requests[part][i];
      ++summary.requests;
      if (record.status != 200) {
        ++summary.refused;
        if (record.status == 429) ++summary.shed;
        continue;
      }
      const auto sequence = JsonInt(record.body, "sequence");
      const auto ingested = JsonInt(record.body, "receipts_ingested");
      if (!sequence || !ingested || *sequence < 0 || *ingested < 0 ||
          static_cast<size_t>(*ingested) > request.count) {
        return Status::Internal("ingest reply lacks sequence/receipts: " +
                                record.body);
      }
      summary.acked_receipts += static_cast<size_t>(*ingested);
      summary.rejected_receipts +=
          request.count - static_cast<size_t>(*ingested);
      if (!JsonEmptyArray(record.body, "poisoned")) ++summary.poisoned_replies;
      summary.alerts += JsonArrayObjects(record.body, "alerts");
      summary.acks.push_back({static_cast<uint64_t>(*sequence), part, i});
    }
  }
  std::sort(summary.acks.begin(), summary.acks.end(),
            [](const Ack& a, const Ack& b) { return a.sequence < b.sequence; });
  return summary;
}

api::FleetOptions CliFleetOptions(size_t threads) {
  // The values churnlab_cli.cc passes for its flag defaults.
  api::FleetOptions options;
  options.scorer.significance.alpha = 2.0;
  options.scorer.window_span_days = 2 * api::kDaysPerMonth;
  options.policy.beta = 0.6;
  options.num_shards = 16;
  options.num_threads = threads;
  options.granularity = api::Granularity::kSegment;
  options.shard_retry.max_retries = 2;
  options.layout = api::StateLayout::kCompact;
  return options;
}

Result<ReplayOutcome> ReplayInProcess(const api::Dataset& dataset,
                                      api::FleetHandle* fleet,
                                      api::Day batch_days,
                                      ReplayTimings* timings) {
  Clock::time_point start = Clock::now();
  const std::vector<api::Receipt> replay =
      DayOrdered(dataset.store().AllReceipts());
  if (timings != nullptr) {
    timings->order_s = SecondsBetween(start, Clock::now());
  }
  ReplayOutcome outcome;
  for (size_t begin = 0; begin < replay.size();) {
    const api::Day batch_end = replay[begin].day + batch_days;
    size_t end = begin;
    while (end < replay.size() && replay[end].day < batch_end) ++end;
    start = Clock::now();
    CHURNLAB_ASSIGN_OR_RETURN(const api::BatchReport report,
                              fleet->IngestBatch(std::span<const api::Receipt>(
                                  replay.data() + begin, end - begin)));
    if (timings != nullptr) {
      timings->batch_us.push_back(SecondsBetween(start, Clock::now()) * 1e6);
      timings->batch_receipts.push_back(end - begin);
    }
    ++outcome.batches;
    outcome.receipts += report.receipts_ingested;
    outcome.alerts += report.alerts.size();
    outcome.rejected += report.rejected.size();
    begin = end;
  }
  start = Clock::now();
  CHURNLAB_ASSIGN_OR_RETURN(const api::BatchReport tail, fleet->FinishAll());
  if (timings != nullptr) {
    timings->finish_s = SecondsBetween(start, Clock::now());
  }
  outcome.alerts += tail.alerts.size();
  outcome.rejected += tail.rejected.size();
  return outcome;
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

}  // namespace perfbench
