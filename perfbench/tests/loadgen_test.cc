// Unit tests of the benchmark's C++ helpers (perfbench/loadgen.h).
// Built as perfbench_selftest; exits non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "loadgen.h"
#include "net/json_codec.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "loadgen_test.cc:%d: check failed: %s\n", line,
                 what);
    ++failures;
  }
}
#define CHECK(expr) Check((expr), #expr, __LINE__)

/// Receipts grouped by customer, each customer's chronological, with
/// same-day pairs; `spend` numbers the receipts in input order.
std::vector<api::Receipt> History() {
  std::vector<api::Receipt> receipts;
  for (api::CustomerId customer = 0; customer < 7; ++customer) {
    api::Day day = static_cast<api::Day>(customer % 3);
    for (int k = 0; k < 9; ++k) {
      api::Receipt receipt;
      receipt.customer = customer;
      receipt.day = day;
      receipt.spend = static_cast<double>(receipts.size());
      receipt.items = {static_cast<api::ItemId>(k)};
      receipts.push_back(receipt);
      if (k % 3 != 1) day += 1 + static_cast<api::Day>((customer + k) % 4);
    }
  }
  return receipts;
}

void PartitionerKeepsEachCustomersReceiptsInDayOrder() {
  const std::vector<api::Receipt> history = History();
  const auto parts = PartitionByCustomer(history, 2);
  CHECK(parts.size() == 2);
  std::map<api::CustomerId, std::vector<double>> seen;
  size_t total = 0;
  for (size_t part = 0; part < parts.size(); ++part) {
    for (size_t i = 0; i < parts[part].size(); ++i) {
      const api::Receipt& receipt = parts[part][i];
      CHECK(receipt.customer % 2 == part);
      if (i > 0) CHECK(parts[part][i - 1].day <= receipt.day);
      seen[receipt.customer].push_back(receipt.spend);
      ++total;
    }
  }
  // Every receipt appears once, and each customer's receipts keep their
  // input order, same-day ties included.
  std::map<api::CustomerId, std::vector<double>> expected;
  for (const api::Receipt& receipt : history) {
    expected[receipt.customer].push_back(receipt.spend);
  }
  CHECK(total == history.size());
  CHECK(seen == expected);
}

void RequestsCoverThePartitionAndDecodeExactly() {
  std::vector<api::Receipt> partition = History();
  partition[3].spend = 0.1 + 0.2;  // needs all 17 digits to round-trip
  const std::vector<IngestRequest> requests = EncodeRequests(partition, 10);
  size_t next = 0;
  for (const IngestRequest& request : requests) {
    CHECK(request.first == next);
    next += request.count;
    const size_t body = request.bytes.find("\r\n\r\n");
    CHECK(body != std::string::npos);
    CHECK(request.bytes.find("Content-Length: " +
                             std::to_string(request.bytes.size() - body - 4)) !=
          std::string::npos);
    auto decoded = churnlab::net::ParseReceiptBatch(
        std::string_view(request.bytes).substr(body + 4), 1000);
    CHECK(decoded.ok());
    if (!decoded.ok()) continue;
    CHECK(decoded->size() == request.count);
    for (size_t i = 0; i < decoded->size(); ++i) {
      const api::Receipt& original = partition[request.first + i];
      CHECK((*decoded)[i].customer == original.customer);
      CHECK((*decoded)[i].day == original.day);
      CHECK((*decoded)[i].spend == original.spend);
      CHECK((*decoded)[i].items == original.items);
    }
  }
  CHECK(next == partition.size());
}

void JsonFieldsAreRead() {
  const std::string reply =
      "{\"receipts_ingested\":256,\"new_customers\":0,\"sequence\":1024,"
      "\"alerts\":[{\"customer\":3,\"kind\":\"a{b\"},{\"customer\":4,"
      "\"items\":[1,2]}],\"rejected\":[],\"poisoned\":[]}";
  CHECK(JsonInt(reply, "sequence") == 1024);
  CHECK(JsonInt(reply, "receipts_ingested") == 256);
  CHECK(!JsonInt(reply, "missing").has_value());
  CHECK(JsonEmptyArray(reply, "rejected"));
  CHECK(!JsonEmptyArray(reply, "alerts"));
  CHECK(JsonArrayObjects(reply, "alerts") == 2);
  CHECK(JsonArrayObjects(reply, "rejected") == 0);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PartitionerKeepsEachCustomersReceiptsInDayOrder();
  perfbench::RequestsCoverThePartitionAndDecodeExactly();
  perfbench::JsonFieldsAreRead();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d checks failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
