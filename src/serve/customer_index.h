#ifndef CHURNLAB_SERVE_CUSTOMER_INDEX_H_
#define CHURNLAB_SERVE_CUSTOMER_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "retail/types.h"

namespace churnlab {
namespace serve {

/// Stable 64-bit mix (the murmur3 finalizer). Used instead of std::hash so
/// shard assignment — and therefore snapshot layout and alert grouping — is
/// identical across runs, standard libraries, and platforms.
inline uint64_t StableHash(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// \brief One shard's customer id -> slot map: a flat open-addressing table.
///
/// One power-of-two array of (id, slot) entries, linear probing, kept at
/// most half full. A lookup starts at one hashed address and almost always
/// ends in the same cache line, which is what lets the fleet prefetch a
/// customer's bucket before it needs the slot. The home bucket is the top
/// bits of StableHash(id): shards are assigned by StableHash(id) %
/// num_shards, i.e. by its low bits, which every id of one shard shares.
/// Erase shifts the rest of the probe run back instead of leaving a
/// tombstone, so lookups never slow down after rollbacks.
class CustomerIndex {
 public:
  /// Find's answer for an absent id; also marks an empty bucket.
  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();
  static constexpr size_t kMinCapacity = 16;

  /// The slot of `customer`, or kNoSlot.
  uint32_t Find(retail::CustomerId customer) const {
    if (entries_.empty()) return kNoSlot;
    for (size_t i = HomeBucket(customer);; i = (i + 1) & mask_) {
      const Entry& entry = entries_[i];
      if (entry.slot == kNoSlot || entry.customer == customer) {
        return entry.slot;
      }
    }
  }

  /// Maps absent `customer` to `slot` (!= kNoSlot). Growth allocates the
  /// new table before touching the old one, so a throwing allocation
  /// leaves the index unchanged.
  void Insert(retail::CustomerId customer, uint32_t slot);

  /// Removes `customer`; no-op when absent.
  void Erase(retail::CustomerId customer);

  /// Sizes the table for `n` ids without further growth.
  void Reserve(size_t n);

  size_t size() const { return size_; }
  /// Buckets in the table (0 before the first insert).
  size_t capacity() const { return entries_.size(); }
  /// Exact heap bytes held by the table.
  size_t MemoryBytes() const { return entries_.capacity() * sizeof(Entry); }

  /// First bucket probed for `customer`. Requires capacity() > 0.
  size_t HomeBucket(retail::CustomerId customer) const {
    return static_cast<size_t>(StableHash(customer) >> shift_);
  }
  /// Address of that bucket (nullptr while the table is empty), for
  /// prefetching.
  const void* BucketAddress(retail::CustomerId customer) const {
    return entries_.empty() ? nullptr : &entries_[HomeBucket(customer)];
  }
  /// Buckets a lookup of `customer` examines, the final one included —
  /// present or not. Diagnostics for probe-chain length.
  size_t ProbeLength(retail::CustomerId customer) const;

 private:
  struct Entry {
    retail::CustomerId customer = 0;
    uint32_t slot = kNoSlot;
  };
  static_assert(sizeof(Entry) == 8);

  /// Rebuilds the table with `capacity` (a power of two) buckets.
  void Rehash(size_t capacity);

  std::vector<Entry> entries_;
  size_t mask_ = 0;
  /// 64 - log2(capacity): HomeBucket keeps the top bits of the hash.
  int shift_ = 64;
  size_t size_ = 0;
};

}  // namespace serve
}  // namespace churnlab

#endif  // CHURNLAB_SERVE_CUSTOMER_INDEX_H_
