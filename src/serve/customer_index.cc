#include "serve/customer_index.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace churnlab {
namespace serve {

void CustomerIndex::Insert(retail::CustomerId customer, uint32_t slot) {
  if (2 * (size_ + 1) > entries_.size()) {
    Rehash(std::max(kMinCapacity, 2 * entries_.size()));
  }
  size_t i = HomeBucket(customer);
  while (entries_[i].slot != kNoSlot) i = (i + 1) & mask_;
  entries_[i] = Entry{customer, slot};
  ++size_;
}

void CustomerIndex::Erase(retail::CustomerId customer) {
  if (entries_.empty()) return;
  size_t hole = HomeBucket(customer);
  for (;; hole = (hole + 1) & mask_) {
    if (entries_[hole].slot == kNoSlot) return;
    if (entries_[hole].customer == customer) break;
  }
  // Backward shift: walk the rest of the probe run and move back every
  // entry whose probe path from its home bucket passes the hole.
  for (size_t next = (hole + 1) & mask_; entries_[next].slot != kNoSlot;
       next = (next + 1) & mask_) {
    const size_t home = HomeBucket(entries_[next].customer);
    if (((next - home) & mask_) >= ((next - hole) & mask_)) {
      entries_[hole] = entries_[next];
      hole = next;
    }
  }
  entries_[hole] = Entry{};
  --size_;
}

void CustomerIndex::Reserve(size_t n) {
  const size_t capacity = std::max(kMinCapacity, std::bit_ceil(2 * n));
  if (capacity > entries_.size()) Rehash(capacity);
}

size_t CustomerIndex::ProbeLength(retail::CustomerId customer) const {
  if (entries_.empty()) return 0;
  size_t length = 1;
  for (size_t i = HomeBucket(customer);
       entries_[i].slot != kNoSlot && entries_[i].customer != customer;
       i = (i + 1) & mask_) {
    ++length;
  }
  return length;
}

void CustomerIndex::Rehash(size_t capacity) {
  std::vector<Entry> fresh(capacity);
  std::swap(entries_, fresh);
  mask_ = capacity - 1;
  shift_ = 64 - std::countr_zero(capacity);
  for (const Entry& entry : fresh) {
    if (entry.slot == kNoSlot) continue;
    size_t i = HomeBucket(entry.customer);
    while (entries_[i].slot != kNoSlot) i = (i + 1) & mask_;
    entries_[i] = entry;
  }
}

}  // namespace serve
}  // namespace churnlab
