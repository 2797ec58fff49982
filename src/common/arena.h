#ifndef CHURNLAB_COMMON_ARENA_H_
#define CHURNLAB_COMMON_ARENA_H_

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

namespace churnlab {

/// \brief Bump/pool allocator for dense per-customer state blocks.
///
/// Memory is carved sequentially out of chunks (bump allocation). Chunk
/// spans grow geometrically — kFirstChunkBytes, doubling up to
/// kMaxChunkBytes — so an arena holding a handful of customers reserves
/// kilobytes, while a large one still amortizes its chunk tails.
/// Every block is rounded up to a size class — the powers of two from 8
/// up, plus a 3/4 midpoint between consecutive powers from 24 up (8, 16,
/// 24, 32, 48, 64, 96, ...), capping rounding waste at ~25% — and released
/// blocks go onto a per-class intrusive freelist for reuse, so growing a
/// counter block from one class to the next recycles the old block for a
/// later customer instead of fragmenting the heap. All blocks are 8-byte
/// aligned (classes are multiples of 8 carved from aligned chunk offsets),
/// which covers every element type stored in them, doubles included.
///
/// The arena never returns memory to the OS before destruction —
/// bytes_reserved() is monotone — but byte accounting is exact:
/// bytes_in_use() tracks live block capacity, and the difference between
/// the two is freelist plus bump slack. Not thread-safe; the serving layer
/// keeps one arena per shard behind the shard mutex.
class BlockArena {
 public:
  static constexpr size_t kFirstChunkBytes = size_t{4} * 1024;
  static constexpr size_t kMaxChunkBytes = size_t{256} * 1024;
  static constexpr size_t kMinBlockBytes = 8;

  BlockArena() = default;
  BlockArena(BlockArena&&) noexcept = default;
  BlockArena& operator=(BlockArena&&) noexcept = default;
  BlockArena(const BlockArena&) = delete;
  BlockArena& operator=(const BlockArena&) = delete;

  /// A block whose capacity is `min_bytes` rounded up to its size class.
  /// The capacity is written to `*capacity_bytes` and must be passed back
  /// verbatim to Release. The returned memory is uninitialized.
  void* Allocate(size_t min_bytes, size_t* capacity_bytes);

  /// Returns `block` (of capacity `capacity_bytes`, as reported by
  /// Allocate) to the freelist of its size class. nullptr is a no-op.
  void Release(void* block, size_t capacity_bytes);

  /// The smallest size class (>= kMinBlockBytes) serving `min_bytes`.
  static size_t SizeClassFor(size_t min_bytes);

  /// Chunk bytes held from the OS.
  size_t bytes_reserved() const { return bytes_reserved_; }
  /// Bytes inside live (allocated, unreleased) blocks, by class capacity.
  size_t bytes_in_use() const { return bytes_in_use_; }
  /// Live blocks outstanding.
  size_t blocks_in_use() const { return blocks_in_use_; }

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> data;
    size_t size = 0;
    size_t used = 0;
  };
  /// Two classes per power of two (plus 8 and 16) cover every
  /// representable size on 64-bit platforms.
  static constexpr size_t kNumClasses = 128;

  /// Freelist index of the class holding blocks of `class_bytes`.
  static size_t ClassIndex(size_t class_bytes);

  /// Span of the next chunk (before the oversized-block override).
  size_t next_chunk_bytes_ = kFirstChunkBytes;
  std::vector<Chunk> chunks_;
  /// Intrusive singly-linked freelists: the first 8 bytes of a released
  /// block point at the next one (class sizes are >= 8 by construction).
  std::array<void*, kNumClasses> free_lists_{};
  size_t bytes_reserved_ = 0;
  size_t bytes_in_use_ = 0;
  size_t blocks_in_use_ = 0;
};

}  // namespace churnlab

#endif  // CHURNLAB_COMMON_ARENA_H_
