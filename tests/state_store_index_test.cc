// Tests of CustomerIndex, the flat open-addressing id -> slot table behind
// every shard of the CustomerStateStore: probe chains that wrap past the
// table end, growth, backward-shift erase, and probe-chain length for the
// id patterns a shard really holds.

#include "serve/customer_index.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace churnlab {
namespace serve {
namespace {

using retail::CustomerId;

constexpr uint32_t kNoSlot = CustomerIndex::kNoSlot;

// Ids whose home bucket in `index` is `bucket`, scanning upward from
// `start`.
std::vector<CustomerId> IdsWithHome(const CustomerIndex& index,
                                    size_t bucket, size_t count,
                                    CustomerId start = 1) {
  std::vector<CustomerId> ids;
  for (CustomerId id = start; ids.size() < count; ++id) {
    if (index.HomeBucket(id) == bucket) ids.push_back(id);
  }
  return ids;
}

// Every id in `present` maps to its position in that vector, and nothing
// in `absent` is found.
void ExpectContents(const CustomerIndex& index,
                    const std::vector<CustomerId>& present,
                    const std::vector<uint32_t>& slots,
                    const std::vector<CustomerId>& absent = {}) {
  ASSERT_EQ(index.size(), present.size());
  for (size_t i = 0; i < present.size(); ++i) {
    ASSERT_EQ(index.Find(present[i]), slots[i]) << "id " << present[i];
  }
  for (const CustomerId id : absent) {
    ASSERT_EQ(index.Find(id), kNoSlot) << "id " << id;
  }
}

TEST(CustomerIndex, EmptyTableFindsNothing) {
  CustomerIndex index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.capacity(), 0u);
  EXPECT_EQ(index.MemoryBytes(), 0u);
  EXPECT_EQ(index.Find(7), kNoSlot);
  EXPECT_EQ(index.BucketAddress(7), nullptr);
  EXPECT_EQ(index.ProbeLength(7), 0u);
  index.Erase(7);  // no-op
  EXPECT_EQ(index.size(), 0u);
}

TEST(CustomerIndex, ProbeChainsWrapPastTheTableEnd) {
  CustomerIndex index;
  index.Reserve(8);
  ASSERT_EQ(index.capacity(), CustomerIndex::kMinCapacity);
  const size_t last = index.capacity() - 1;
  // Four ids homed at the last bucket occupy it and the first three.
  const std::vector<CustomerId> ids = IdsWithHome(index, last, 4);
  for (uint32_t slot = 0; slot < ids.size(); ++slot) {
    index.Insert(ids[slot], slot);
  }
  ExpectContents(index, ids, {0, 1, 2, 3});
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(index.ProbeLength(ids[i]), i + 1);
  }
  // An absent id homed at bucket 1 probes through the wrapped run.
  const CustomerId stranger = IdsWithHome(index, 1, 1).front();
  EXPECT_EQ(index.Find(stranger), kNoSlot);
  EXPECT_EQ(index.ProbeLength(stranger), 3u);  // buckets 1, 2, 3 (empty)

  // Erasing the id in the last bucket shifts the wrapped ones back.
  index.Erase(ids[0]);
  ExpectContents(index, {ids[1], ids[2], ids[3]}, {1, 2, 3}, {ids[0]});
  EXPECT_EQ(index.ProbeLength(ids[1]), 1u);
  EXPECT_EQ(index.ProbeLength(ids[3]), 3u);
  EXPECT_EQ(index.capacity(), CustomerIndex::kMinCapacity);
}

TEST(CustomerIndex, GrowthKeepsEverySlot) {
  CustomerIndex index;
  std::vector<CustomerId> ids;
  std::vector<uint32_t> slots;
  std::mt19937 rng(5);
  size_t last_capacity = 0;
  for (uint32_t slot = 0; slot < 50000; ++slot) {
    const CustomerId id = static_cast<CustomerId>(rng() >> 1);
    if (index.Find(id) != kNoSlot) continue;
    index.Insert(id, slot);
    ids.push_back(id);
    slots.push_back(slot);
    if (index.capacity() != last_capacity) {
      // Right after every rehash, everything inserted so far survived it.
      last_capacity = index.capacity();
      ExpectContents(index, ids, slots);
    }
    ASSERT_LE(2 * index.size(), index.capacity());
  }
  ExpectContents(index, ids, slots);
  EXPECT_EQ(std::popcount(index.capacity()), 1);
  EXPECT_EQ(index.MemoryBytes(), index.capacity() * 8);
}

TEST(CustomerIndex, ReserveSizesForHalfLoad) {
  CustomerIndex index;
  index.Reserve(1000);
  EXPECT_EQ(index.capacity(), 2048u);
  for (uint32_t slot = 0; slot < 1000; ++slot) index.Insert(slot * 7, slot);
  EXPECT_EQ(index.capacity(), 2048u);  // no growth up to the reservation
  index.Reserve(10);                   // never shrinks
  EXPECT_EQ(index.capacity(), 2048u);
}

TEST(CustomerIndex, BackwardShiftEraseLeavesOthersFindable) {
  CustomerIndex index;
  // A dense cluster: ids sharing a handful of home buckets next to each
  // other, plus random ids around them.
  index.Reserve(600);
  std::vector<CustomerId> ids;
  for (size_t bucket = 100; bucket < 104; ++bucket) {
    for (const CustomerId id : IdsWithHome(index, bucket, 20)) {
      ids.push_back(id);
    }
  }
  std::mt19937 rng(11);
  while (ids.size() < 600) {
    const CustomerId id = static_cast<CustomerId>(rng() >> 1);
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
  std::vector<uint32_t> slots(ids.size());
  std::iota(slots.begin(), slots.end(), 0u);
  for (size_t i = 0; i < ids.size(); ++i) index.Insert(ids[i], slots[i]);
  ExpectContents(index, ids, slots);

  std::vector<size_t> order(ids.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<bool> erased(ids.size(), false);
  for (size_t n = 0; n < order.size(); ++n) {
    index.Erase(ids[order[n]]);
    erased[order[n]] = true;
    index.Erase(ids[order[n]]);  // erasing again is a no-op
    if (n % 25 != 0 && n + 1 != order.size()) continue;
    std::vector<CustomerId> present, absent;
    std::vector<uint32_t> present_slots;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (erased[i]) {
        absent.push_back(ids[i]);
      } else {
        present.push_back(ids[i]);
        present_slots.push_back(slots[i]);
      }
    }
    ExpectContents(index, present, present_slots, absent);
  }
  EXPECT_EQ(index.size(), 0u);
}

TEST(CustomerIndex, SharedHomeBucketsFormOneRun) {
  CustomerIndex index;
  index.Reserve(8);
  const std::vector<CustomerId> ids = IdsWithHome(index, 5, 8);
  for (uint32_t slot = 0; slot < ids.size(); ++slot) {
    index.Insert(ids[slot], slot);
  }
  ASSERT_EQ(index.capacity(), CustomerIndex::kMinCapacity);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(index.Find(ids[i]), i);
    EXPECT_EQ(index.ProbeLength(ids[i]), i + 1);
  }
  // Growing spreads them over the larger table.
  index.Insert(ids.back() + 1, 99);
  EXPECT_EQ(index.capacity(), 2 * CustomerIndex::kMinCapacity);
  for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(index.Find(ids[i]), i);
}

// Mean and longest successful probe over `ids` inserted in order.
std::pair<double, size_t> ProbeStats(const std::vector<CustomerId>& ids) {
  CustomerIndex index;
  for (uint32_t slot = 0; slot < ids.size(); ++slot) {
    index.Insert(ids[slot], slot);
  }
  size_t total = 0, longest = 0;
  for (const CustomerId id : ids) {
    const size_t length = index.ProbeLength(id);
    total += length;
    longest = std::max(longest, length);
  }
  return {static_cast<double>(total) / static_cast<double>(ids.size()),
          longest};
}

TEST(CustomerIndex, ProbeChainsStayShortForStructuredIds) {
  constexpr size_t kIds = 20000;
  std::vector<CustomerId> sequential(kIds);
  std::iota(sequential.begin(), sequential.end(), CustomerId{0});
  std::vector<CustomerId> high_bits(kIds);
  for (size_t i = 0; i < kIds; ++i) {
    high_bits[i] = static_cast<CustomerId>(i << 17);  // low 17 bits zero
  }
  // What one of 16 shards holds: ids whose StableHash agrees mod 16, i.e.
  // in its low bits.
  std::vector<CustomerId> one_shard;
  for (CustomerId id = 0; one_shard.size() < kIds; ++id) {
    if (StableHash(id) % 16 == 3) one_shard.push_back(id);
  }
  for (const auto* ids : {&sequential, &high_bits, &one_shard}) {
    const auto [mean, longest] = ProbeStats(*ids);
    // Linear probing at <= 50% load averages <= 1.5 probes per hit.
    EXPECT_LT(mean, 2.0);
    EXPECT_LT(longest, 40u);
  }
}

}  // namespace
}  // namespace serve
}  // namespace churnlab
