// Unit tests for BlockArena: size-class rounding, freelist reuse,
// oversized blocks, geometric chunk growth, and exact byte accounting.

#include "common/arena.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

namespace churnlab {
namespace {

TEST(BlockArena, SizeClassLadderIsPowersPlusMidpoints) {
  // 8, 16, then two classes per octave: the 3/4 midpoint and the power
  // itself (24, 32, 48, 64, 96, 128, ...). All multiples of 8.
  EXPECT_EQ(BlockArena::SizeClassFor(0), BlockArena::kMinBlockBytes);
  EXPECT_EQ(BlockArena::SizeClassFor(1), BlockArena::kMinBlockBytes);
  EXPECT_EQ(BlockArena::SizeClassFor(8), 8u);
  EXPECT_EQ(BlockArena::SizeClassFor(9), 16u);
  EXPECT_EQ(BlockArena::SizeClassFor(16), 16u);
  EXPECT_EQ(BlockArena::SizeClassFor(17), 24u);
  EXPECT_EQ(BlockArena::SizeClassFor(24), 24u);
  EXPECT_EQ(BlockArena::SizeClassFor(25), 32u);
  EXPECT_EQ(BlockArena::SizeClassFor(33), 48u);
  EXPECT_EQ(BlockArena::SizeClassFor(49), 64u);
  EXPECT_EQ(BlockArena::SizeClassFor(65), 96u);
  EXPECT_EQ(BlockArena::SizeClassFor(97), 128u);
  EXPECT_EQ(BlockArena::SizeClassFor(768), 768u);
  EXPECT_EQ(BlockArena::SizeClassFor(1000), 1024u);
  EXPECT_EQ(BlockArena::SizeClassFor(1024), 1024u);
  EXPECT_EQ(BlockArena::SizeClassFor(1025), 1536u);
  EXPECT_EQ(BlockArena::SizeClassFor(1537), 2048u);
}

TEST(BlockArena, AllocateReportsClassCapacityAndAligns) {
  BlockArena arena;
  size_t capacity = 0;
  void* block = arena.Allocate(12, &capacity);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(capacity, 16u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(block) % 8, 0u);
  // The block is writable over its whole capacity.
  std::memset(block, 0xab, capacity);
  arena.Release(block, capacity);
}

TEST(BlockArena, FreelistReusesReleasedBlocks) {
  BlockArena arena;
  size_t capacity = 0;
  void* first = arena.Allocate(100, &capacity);
  EXPECT_EQ(capacity, 128u);
  arena.Release(first, capacity);
  // Same class request: the released block comes straight back.
  size_t again = 0;
  void* second = arena.Allocate(120, &again);
  EXPECT_EQ(again, 128u);
  EXPECT_EQ(second, first);
  // No new chunk was needed for the reuse.
  EXPECT_EQ(arena.bytes_reserved(), BlockArena::kFirstChunkBytes);
  arena.Release(second, again);
}

TEST(BlockArena, AccountingTracksLiveBlocksExactly) {
  BlockArena arena;
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.blocks_in_use(), 0u);

  std::vector<std::pair<void*, size_t>> blocks;
  size_t expected = 0;
  for (const size_t bytes : {size_t{8}, size_t{20}, size_t{100},
                             size_t{4096}}) {
    size_t capacity = 0;
    blocks.emplace_back(arena.Allocate(bytes, &capacity), capacity);
    expected += capacity;
    EXPECT_EQ(arena.bytes_in_use(), expected);
    EXPECT_EQ(arena.blocks_in_use(), blocks.size());
  }
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_in_use());

  for (const auto& [block, capacity] : blocks) {
    arena.Release(block, capacity);
    expected -= capacity;
    EXPECT_EQ(arena.bytes_in_use(), expected);
  }
  EXPECT_EQ(arena.blocks_in_use(), 0u);
  // Reserved chunks are kept for reuse; accounting stays monotone.
  EXPECT_GE(arena.bytes_reserved(), BlockArena::kFirstChunkBytes);
}

TEST(BlockArena, ReleaseNullIsANoOp) {
  BlockArena arena;
  arena.Release(nullptr, 64);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.blocks_in_use(), 0u);
}

TEST(BlockArena, OversizedBlocksGetDedicatedChunks) {
  BlockArena arena;
  size_t capacity = 0;
  void* big = arena.Allocate(10000, &capacity);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(capacity, 12288u);
  // Larger than the first chunk span: the chunk is exactly the block.
  EXPECT_EQ(arena.bytes_reserved(), capacity);
  std::memset(big, 0x5a, capacity);
  arena.Release(big, capacity);
  // The oversized block is reusable like any other class member.
  size_t again = 0;
  void* reuse = arena.Allocate(12000, &again);
  EXPECT_EQ(reuse, big);
  arena.Release(reuse, again);
}

TEST(BlockArena, ManySmallBlocksSpanChunks) {
  // 1000 blocks of 32 bytes outgrow the first three chunks (4 + 8 + 16 KiB).
  BlockArena arena;
  std::vector<std::pair<void*, size_t>> blocks;
  for (int i = 0; i < 1000; ++i) {
    size_t capacity = 0;
    void* block = arena.Allocate(28, &capacity);
    ASSERT_NE(block, nullptr);
    // Touch the block so a bad carve would trip ASan.
    std::memset(block, i, capacity);
    blocks.emplace_back(block, capacity);
  }
  EXPECT_EQ(arena.blocks_in_use(), 1000u);
  EXPECT_EQ(arena.bytes_in_use(), 1000u * 32u);
  EXPECT_GT(arena.bytes_reserved(), 28u * 1024u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_in_use());
  for (const auto& [block, capacity] : blocks) {
    arena.Release(block, capacity);
  }
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

TEST(BlockArena, ChunkSpansDoubleFromFirstUpToTheCap) {
  // 4 KiB blocks fill every chunk exactly, so each new chunk shows up as
  // one step in bytes_reserved().
  BlockArena arena;
  std::vector<size_t> spans;
  size_t reserved = 0;
  while (spans.size() < 9) {
    size_t capacity = 0;
    ASSERT_NE(arena.Allocate(4096, &capacity), nullptr);
    if (arena.bytes_reserved() != reserved) {
      spans.push_back(arena.bytes_reserved() - reserved);
      reserved = arena.bytes_reserved();
    }
  }
  const size_t kib = 1024;
  EXPECT_EQ(spans, (std::vector<size_t>{4 * kib, 8 * kib, 16 * kib, 32 * kib,
                                        64 * kib, 128 * kib, 256 * kib,
                                        256 * kib, 256 * kib}));
  EXPECT_EQ(spans.front(), BlockArena::kFirstChunkBytes);
  EXPECT_EQ(spans.back(), BlockArena::kMaxChunkBytes);
}

TEST(BlockArena, MoveTransfersOwnership) {
  BlockArena source;
  size_t capacity = 0;
  void* block = source.Allocate(64, &capacity);
  std::memset(block, 1, capacity);
  BlockArena moved = std::move(source);
  EXPECT_EQ(moved.bytes_in_use(), 64u);
  EXPECT_EQ(moved.blocks_in_use(), 1u);
  // The block's memory survives the move.
  EXPECT_EQ(static_cast<unsigned char*>(block)[0], 1);
  moved.Release(block, capacity);
  EXPECT_EQ(moved.bytes_in_use(), 0u);
}

}  // namespace
}  // namespace churnlab
