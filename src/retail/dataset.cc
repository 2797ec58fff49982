#include "retail/dataset.h"

#include <algorithm>
#include <sstream>

#include "common/binary_io.h"
#include "common/csv.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace churnlab {
namespace retail {

namespace {
// Binary format magic + version. Bump the version on layout changes.
constexpr uint64_t kBinaryMagic = 0x43484C4231ULL;  // "CHLB1"
constexpr uint64_t kBinaryVersion = 1;
/// Smallest encoded receipt: customer and day varints, the 8-byte spend,
/// and the item-count varint.
constexpr uint64_t kMinReceiptBytes = 1 + 1 + 8 + 1;

void RecordDatasetLoaded(const Dataset& dataset, double seconds) {
  static obs::Counter* const datasets =
      obs::MetricsRegistry::Global().GetCounter(
          "churnlab.retail.datasets_loaded");
  static obs::Counter* const receipts =
      obs::MetricsRegistry::Global().GetCounter(
          "churnlab.retail.receipts_loaded");
  static obs::Gauge* const load_seconds =
      obs::MetricsRegistry::Global().GetGauge(
          "churnlab.retail.last_load_seconds");
  datasets->Increment();
  receipts->Increment(dataset.store().num_receipts());
  load_seconds->Set(seconds);
}

void RecordDatasetSaved() {
  static obs::Counter* const saved = obs::MetricsRegistry::Global().GetCounter(
      "churnlab.retail.datasets_saved");
  saved->Increment();
}
}  // namespace

std::string_view CohortToString(Cohort cohort) {
  switch (cohort) {
    case Cohort::kLoyal:
      return "loyal";
    case Cohort::kDefecting:
      return "defecting";
    case Cohort::kUnlabeled:
      return "unlabeled";
  }
  return "unlabeled";
}

Result<Cohort> CohortFromString(std::string_view text) {
  if (text == "loyal") return Cohort::kLoyal;
  if (text == "defecting") return Cohort::kDefecting;
  if (text == "unlabeled") return Cohort::kUnlabeled;
  return Status::InvalidArgument("unknown cohort '" + std::string(text) + "'");
}

std::string DatasetStats::ToString() const {
  std::ostringstream out;
  out << "customers:             "
      << FormatWithThousandsSeparators(static_cast<int64_t>(num_customers))
      << "\n"
      << "receipts:              "
      << FormatWithThousandsSeparators(static_cast<int64_t>(num_receipts))
      << "\n"
      << "distinct products:     "
      << FormatWithThousandsSeparators(
             static_cast<int64_t>(num_distinct_items))
      << "\n"
      << "taxonomy segments:     "
      << FormatWithThousandsSeparators(static_cast<int64_t>(num_segments))
      << "\n"
      << "taxonomy departments:  "
      << FormatWithThousandsSeparators(static_cast<int64_t>(num_departments))
      << "\n"
      << "day span:              [" << min_day << ", " << max_day << "] ("
      << num_months << " months)\n"
      << "avg basket size:       " << FormatDouble(avg_basket_size, 2) << "\n"
      << "avg receipts/customer: " << FormatDouble(avg_receipts_per_customer, 2)
      << "\n"
      << "avg spend/receipt:     " << FormatDouble(avg_spend_per_receipt, 2)
      << "\n"
      << "labels:                " << num_loyal << " loyal, " << num_defecting
      << " defecting, " << num_unlabeled << " unlabeled\n";
  return out.str();
}

void Dataset::SetLabel(CustomerId customer, CustomerLabel label) {
  labels_[customer] = label;
}

CustomerLabel Dataset::LabelOf(CustomerId customer) const {
  const auto it = labels_.find(customer);
  return it == labels_.end() ? CustomerLabel{} : it->second;
}

std::vector<CustomerId> Dataset::CustomersWithCohort(Cohort cohort) const {
  std::vector<CustomerId> result;
  for (const auto& [customer, label] : labels_) {
    if (label.cohort == cohort) result.push_back(customer);
  }
  std::sort(result.begin(), result.end());
  return result;
}

DatasetStats Dataset::ComputeStats() const {
  DatasetStats stats;
  stats.num_customers = store_.num_customers();
  stats.num_receipts = store_.num_receipts();
  stats.num_distinct_items = store_.CountDistinctItems();
  stats.num_segments = taxonomy_.num_segments();
  stats.num_departments = taxonomy_.num_departments();
  stats.min_day = store_.min_day();
  stats.max_day = store_.max_day();
  stats.num_months = store_.num_receipts() == 0
                         ? 0
                         : DayToMonth(store_.max_day()) -
                               DayToMonth(store_.min_day()) + 1;
  size_t total_items = 0;
  double total_spend = 0.0;
  for (const Receipt& receipt : store_.AllReceipts()) {
    total_items += receipt.items.size();
    total_spend += receipt.spend;
  }
  if (stats.num_receipts > 0) {
    stats.avg_basket_size =
        static_cast<double>(total_items) /
        static_cast<double>(stats.num_receipts);
    stats.avg_spend_per_receipt =
        total_spend / static_cast<double>(stats.num_receipts);
  }
  if (stats.num_customers > 0) {
    stats.avg_receipts_per_customer =
        static_cast<double>(stats.num_receipts) /
        static_cast<double>(stats.num_customers);
  }
  for (const auto& [customer, label] : labels_) {
    switch (label.cohort) {
      case Cohort::kLoyal:
        ++stats.num_loyal;
        break;
      case Cohort::kDefecting:
        ++stats.num_defecting;
        break;
      case Cohort::kUnlabeled:
        ++stats.num_unlabeled;
        break;
    }
  }
  return stats;
}

Result<Dataset> Dataset::FilterByDayRange(Day begin_day, Day end_day) const {
  if (!store_.finalized()) {
    return Status::InvalidArgument("dataset store is not finalized");
  }
  if (begin_day >= end_day) {
    return Status::InvalidArgument("need begin_day < end_day");
  }
  Dataset filtered;
  filtered.items_ = items_;
  filtered.taxonomy_ = taxonomy_;
  filtered.labels_ = labels_;
  for (const Receipt& receipt : store_.AllReceipts()) {
    if (receipt.day < begin_day || receipt.day >= end_day) continue;
    CHURNLAB_RETURN_NOT_OK(filtered.store_.Append(receipt));
  }
  filtered.Finalize();
  return filtered;
}

Result<Dataset> Dataset::FilterCustomers(
    const std::vector<CustomerId>& customers) const {
  if (!store_.finalized()) {
    return Status::InvalidArgument("dataset store is not finalized");
  }
  Dataset filtered;
  filtered.items_ = items_;
  filtered.taxonomy_ = taxonomy_;
  for (const CustomerId customer : customers) {
    for (const Receipt& receipt : store_.History(customer)) {
      CHURNLAB_RETURN_NOT_OK(filtered.store_.Append(receipt));
    }
    const auto label = labels_.find(customer);
    if (label != labels_.end()) {
      filtered.labels_.emplace(customer, label->second);
    }
  }
  filtered.Finalize();
  return filtered;
}

// ---------------------------------------------------------------------------
// CSV serialization
// ---------------------------------------------------------------------------

Status Dataset::SaveCsv(const std::string& prefix) const {
  CHURNLAB_SPAN("retail.save_csv");
  // Receipts.
  {
    CHURNLAB_ASSIGN_OR_RETURN(CsvWriter writer,
                              CsvWriter::Open(prefix + ".receipts.csv"));
    CHURNLAB_RETURN_NOT_OK(
        writer.WriteRow({"customer", "day", "spend", "items"}));
    for (const Receipt& receipt : store_.AllReceipts()) {
      std::string item_field;
      for (size_t i = 0; i < receipt.items.size(); ++i) {
        if (i > 0) item_field += ';';
        item_field += items_.NameOrPlaceholder(receipt.items[i]);
      }
      CHURNLAB_RETURN_NOT_OK(writer.WriteRow(
          {std::to_string(receipt.customer), std::to_string(receipt.day),
           FormatDouble(receipt.spend, 2), std::move(item_field)}));
    }
    CHURNLAB_RETURN_NOT_OK(writer.Close());
  }
  // Taxonomy.
  {
    CHURNLAB_ASSIGN_OR_RETURN(CsvWriter writer,
                              CsvWriter::Open(prefix + ".taxonomy.csv"));
    CHURNLAB_RETURN_NOT_OK(writer.WriteRow({"item", "segment", "department"}));
    for (ItemId item = 0; item < items_.size(); ++item) {
      const SegmentId segment = taxonomy_.SegmentOf(item);
      if (segment == kInvalidSegment) continue;
      CHURNLAB_ASSIGN_OR_RETURN(const std::string segment_name,
                                taxonomy_.SegmentName(segment));
      CHURNLAB_ASSIGN_OR_RETURN(const DepartmentId department,
                                taxonomy_.DepartmentOf(segment));
      CHURNLAB_ASSIGN_OR_RETURN(const std::string department_name,
                                taxonomy_.DepartmentName(department));
      CHURNLAB_RETURN_NOT_OK(writer.WriteRow(
          {items_.NameOrPlaceholder(item), segment_name, department_name}));
    }
    CHURNLAB_RETURN_NOT_OK(writer.Close());
  }
  // Labels.
  {
    CHURNLAB_ASSIGN_OR_RETURN(CsvWriter writer,
                              CsvWriter::Open(prefix + ".labels.csv"));
    CHURNLAB_RETURN_NOT_OK(
        writer.WriteRow({"customer", "cohort", "onset_month"}));
    std::vector<CustomerId> ids;
    ids.reserve(labels_.size());
    for (const auto& [customer, label] : labels_) ids.push_back(customer);
    std::sort(ids.begin(), ids.end());
    for (const CustomerId customer : ids) {
      const CustomerLabel label = labels_.at(customer);
      CHURNLAB_RETURN_NOT_OK(writer.WriteRow(
          {std::to_string(customer), std::string(CohortToString(label.cohort)),
           std::to_string(label.attrition_onset_month)}));
    }
    CHURNLAB_RETURN_NOT_OK(writer.Close());
  }
  RecordDatasetSaved();
  return Status::OK();
}

Result<Dataset> Dataset::LoadCsv(const std::string& prefix) {
  CHURNLAB_SPAN("retail.load_csv");
  CHURNLAB_FAILPOINT("retail.load_csv");
  Stopwatch stopwatch;
  Dataset dataset;
  // Taxonomy first so items get interned with their assignments.
  {
    CHURNLAB_ASSIGN_OR_RETURN(CsvReader reader,
                              CsvReader::Open(prefix + ".taxonomy.csv"));
    std::vector<std::string> row;
    std::unordered_map<std::string, SegmentId> segment_ids;
    std::unordered_map<std::string, DepartmentId> department_ids;
    bool header = true;
    while (reader.ReadRow(&row)) {
      if (header) {
        header = false;
        continue;
      }
      if (row.size() != 3) {
        return Status::InvalidArgument(
            "taxonomy row " + std::to_string(reader.row_number()) +
            " has " + std::to_string(row.size()) + " fields, expected 3");
      }
      DepartmentId department;
      if (const auto it = department_ids.find(row[2]);
          it != department_ids.end()) {
        department = it->second;
      } else {
        department = dataset.taxonomy_.AddDepartment(row[2]);
        department_ids.emplace(row[2], department);
      }
      SegmentId segment;
      if (const auto it = segment_ids.find(row[1]); it != segment_ids.end()) {
        segment = it->second;
      } else {
        CHURNLAB_ASSIGN_OR_RETURN(
            segment, dataset.taxonomy_.AddSegment(row[1], department));
        segment_ids.emplace(row[1], segment);
      }
      const ItemId item = dataset.items_.GetOrAdd(row[0]);
      CHURNLAB_RETURN_NOT_OK(dataset.taxonomy_.AssignItem(item, segment));
    }
    CHURNLAB_RETURN_NOT_OK(reader.status());
  }
  // Receipts.
  {
    CHURNLAB_ASSIGN_OR_RETURN(CsvReader reader,
                              CsvReader::Open(prefix + ".receipts.csv"));
    std::vector<std::string> row;
    bool header = true;
    while (reader.ReadRow(&row)) {
      if (header) {
        header = false;
        continue;
      }
      if (row.size() != 4) {
        return Status::InvalidArgument(
            "receipt row " + std::to_string(reader.row_number()) + " has " +
            std::to_string(row.size()) + " fields, expected 4");
      }
      Receipt receipt;
      CHURNLAB_ASSIGN_OR_RETURN(const uint64_t customer, ParseUint64(row[0]));
      CHURNLAB_FAILPOINT_KEYED("retail.load_csv.receipt", customer);
      receipt.customer = static_cast<CustomerId>(customer);
      CHURNLAB_ASSIGN_OR_RETURN(const int64_t day, ParseInt64(row[1]));
      receipt.day = static_cast<Day>(day);
      CHURNLAB_ASSIGN_OR_RETURN(receipt.spend, ParseDouble(row[2]));
      if (!row[3].empty()) {
        for (const std::string_view name : Split(row[3], ';')) {
          receipt.items.push_back(dataset.items_.GetOrAdd(name));
        }
      }
      CHURNLAB_RETURN_NOT_OK(dataset.store_.Append(std::move(receipt)));
    }
    CHURNLAB_RETURN_NOT_OK(reader.status());
  }
  // Labels.
  {
    CHURNLAB_ASSIGN_OR_RETURN(CsvReader reader,
                              CsvReader::Open(prefix + ".labels.csv"));
    std::vector<std::string> row;
    bool header = true;
    while (reader.ReadRow(&row)) {
      if (header) {
        header = false;
        continue;
      }
      if (row.size() != 3) {
        return Status::InvalidArgument(
            "label row " + std::to_string(reader.row_number()) + " has " +
            std::to_string(row.size()) + " fields, expected 3");
      }
      CHURNLAB_ASSIGN_OR_RETURN(const uint64_t customer, ParseUint64(row[0]));
      CHURNLAB_ASSIGN_OR_RETURN(const Cohort cohort, CohortFromString(row[1]));
      CHURNLAB_ASSIGN_OR_RETURN(const int64_t onset, ParseInt64(row[2]));
      dataset.SetLabel(static_cast<CustomerId>(customer),
                       {cohort, static_cast<int32_t>(onset)});
    }
    CHURNLAB_RETURN_NOT_OK(reader.status());
  }
  dataset.Finalize();
  RecordDatasetLoaded(dataset, stopwatch.ElapsedSeconds());
  CHURNLAB_LOG(Info) << "loaded CSV dataset '" << prefix << "': "
                     << dataset.store().num_receipts() << " receipts, "
                     << dataset.store().num_customers() << " customers";
  return dataset;
}

// ---------------------------------------------------------------------------
// Binary serialization
// ---------------------------------------------------------------------------

Status Dataset::SaveBinary(const std::string& path) const {
  CHURNLAB_SPAN("retail.save_binary");
  BinaryWriter writer;
  writer.WriteVarint(kBinaryMagic);
  writer.WriteVarint(kBinaryVersion);

  // Item dictionary.
  writer.WriteVarint(items_.size());
  for (const std::string& name : items_.names()) writer.WriteString(name);

  // Taxonomy.
  writer.WriteVarint(taxonomy_.num_departments());
  for (DepartmentId d = 0; d < taxonomy_.num_departments(); ++d) {
    CHURNLAB_ASSIGN_OR_RETURN(const std::string name,
                              taxonomy_.DepartmentName(d));
    writer.WriteString(name);
  }
  writer.WriteVarint(taxonomy_.num_segments());
  for (SegmentId s = 0; s < taxonomy_.num_segments(); ++s) {
    CHURNLAB_ASSIGN_OR_RETURN(const std::string name, taxonomy_.SegmentName(s));
    CHURNLAB_ASSIGN_OR_RETURN(const DepartmentId department,
                              taxonomy_.DepartmentOf(s));
    writer.WriteString(name);
    writer.WriteVarint(department);
  }
  // Item -> segment assignments (only assigned items).
  writer.WriteVarint(taxonomy_.num_assigned_items());
  for (ItemId item = 0; item < items_.size(); ++item) {
    const SegmentId segment = taxonomy_.SegmentOf(item);
    if (segment == kInvalidSegment) continue;
    writer.WriteVarint(item);
    writer.WriteVarint(segment);
  }

  // Receipts (delta-encoded days within a customer run would save little at
  // our sizes; keep the layout simple and explicit).
  writer.WriteVarint(store_.num_receipts());
  for (const Receipt& receipt : store_.AllReceipts()) {
    writer.WriteVarint(receipt.customer);
    writer.WriteSignedVarint(receipt.day);
    writer.WriteDouble(receipt.spend);
    writer.WriteVarint(receipt.items.size());
    ItemId previous = 0;
    for (const ItemId item : receipt.items) {  // sorted => ascending deltas
      writer.WriteVarint(item - previous);
      previous = item;
    }
  }

  // Labels.
  std::vector<CustomerId> ids;
  ids.reserve(labels_.size());
  for (const auto& [customer, label] : labels_) ids.push_back(customer);
  std::sort(ids.begin(), ids.end());
  writer.WriteVarint(ids.size());
  for (const CustomerId customer : ids) {
    const CustomerLabel label = labels_.at(customer);
    writer.WriteVarint(customer);
    writer.WriteVarint(static_cast<uint64_t>(label.cohort));
    writer.WriteSignedVarint(label.attrition_onset_month);
  }

  CHURNLAB_RETURN_NOT_OK(writer.SaveToFile(path));
  RecordDatasetSaved();
  return Status::OK();
}

Result<Dataset> Dataset::LoadBinary(const std::string& path) {
  CHURNLAB_SPAN("retail.load_binary");
  CHURNLAB_FAILPOINT("retail.load_binary");
  Stopwatch stopwatch;
  CHURNLAB_ASSIGN_OR_RETURN(BinaryReader reader, BinaryReader::OpenFile(path));
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t magic, reader.ReadVarint());
  if (magic != kBinaryMagic) {
    return Status::InvalidArgument("'" + path + "' is not a churnlab dataset");
  }
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t version, reader.ReadVarint());
  if (version != kBinaryVersion) {
    return Status::InvalidArgument("unsupported dataset version " +
                                   std::to_string(version));
  }

  Dataset dataset;
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t num_items, reader.ReadVarint());
  for (uint64_t i = 0; i < num_items; ++i) {
    CHURNLAB_ASSIGN_OR_RETURN(const std::string name, reader.ReadString());
    dataset.items_.GetOrAdd(name);
  }

  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t num_departments,
                            reader.ReadVarint());
  for (uint64_t d = 0; d < num_departments; ++d) {
    CHURNLAB_ASSIGN_OR_RETURN(const std::string name, reader.ReadString());
    dataset.taxonomy_.AddDepartment(name);
  }
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t num_segments, reader.ReadVarint());
  for (uint64_t s = 0; s < num_segments; ++s) {
    CHURNLAB_ASSIGN_OR_RETURN(const std::string name, reader.ReadString());
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t department, reader.ReadVarint());
    CHURNLAB_ASSIGN_OR_RETURN(
        const SegmentId segment,
        dataset.taxonomy_.AddSegment(name,
                                     static_cast<DepartmentId>(department)));
    (void)segment;
  }
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t num_assigned, reader.ReadVarint());
  for (uint64_t i = 0; i < num_assigned; ++i) {
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t item, reader.ReadVarint());
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t segment, reader.ReadVarint());
    CHURNLAB_RETURN_NOT_OK(dataset.taxonomy_.AssignItem(
        static_cast<ItemId>(item), static_cast<SegmentId>(segment)));
  }

  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t num_receipts, reader.ReadVarint());
  // The count is untrusted: a receipt takes at least kMinReceiptBytes, so
  // the reservation is capped by what the remaining bytes can hold.
  dataset.store_.Reserve(static_cast<size_t>(
      std::min<uint64_t>(num_receipts, reader.remaining() / kMinReceiptBytes)));
  // One raw cursor for the whole receipt section: errors latch, so each
  // receipt is checked once its fields are decoded.
  ByteCursor cursor = reader.Cursor();
  for (uint64_t r = 0; r < num_receipts; ++r) {
    Receipt receipt;
    receipt.customer = static_cast<CustomerId>(cursor.ReadVarint());
    receipt.day = static_cast<Day>(cursor.ReadSignedVarint());
    receipt.spend = cursor.ReadDouble();
    const uint64_t item_count = cursor.ReadVarint();
    CHURNLAB_RETURN_NOT_OK(cursor.status());
    // Untrusted length prefix: each item takes at least one byte, so an
    // item count beyond the remaining bytes is corruption — reject before
    // reserving storage sized from it.
    if (item_count > cursor.remaining()) {
      return Status::InvalidArgument(
          "receipt item count exceeds remaining dataset bytes");
    }
    receipt.items.resize(item_count);
    ItemId previous = 0;
    for (ItemId& item : receipt.items) {
      previous = static_cast<ItemId>(previous + cursor.ReadVarint());
      item = previous;
    }
    CHURNLAB_RETURN_NOT_OK(cursor.status());
    CHURNLAB_RETURN_NOT_OK(dataset.store_.Append(std::move(receipt)));
  }
  reader.Seek(cursor);

  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t num_labels, reader.ReadVarint());
  for (uint64_t i = 0; i < num_labels; ++i) {
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t customer, reader.ReadVarint());
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t cohort, reader.ReadVarint());
    if (cohort > static_cast<uint64_t>(Cohort::kDefecting)) {
      return Status::InvalidArgument("corrupt cohort value " +
                                     std::to_string(cohort));
    }
    CHURNLAB_ASSIGN_OR_RETURN(const int64_t onset, reader.ReadSignedVarint());
    dataset.SetLabel(
        static_cast<CustomerId>(customer),
        {static_cast<Cohort>(cohort), static_cast<int32_t>(onset)});
  }

  dataset.Finalize();
  RecordDatasetLoaded(dataset, stopwatch.ElapsedSeconds());
  return dataset;
}

}  // namespace retail
}  // namespace churnlab
