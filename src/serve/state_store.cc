#include "serve/state_store.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <utility>

#include "common/arena.h"
#include "common/failpoint.h"
#include "common/macros.h"
#include "common/prefetch.h"
#include "core/pow_cache.h"
#include "core/state_kernel.h"

namespace churnlab {
namespace serve {

namespace {

// ---------------------------------------------------------------------------
// Slot records + arena-backed variable-size blocks.
// ---------------------------------------------------------------------------

/// One variable-size array carved from the shard arena. `size` is the
/// logical element count; `capacity_bytes` is the arena size class and must
/// be passed back verbatim on release. 32-bit fields keep the handle (and
/// the 5-handle BlockSet) small; per-customer blocks are bounded far below
/// 4 GiB by the snapshot-load symbol caps.
struct BlockHandle {
  void* data = nullptr;
  uint32_t size = 0;
  uint32_t capacity_bytes = 0;

  template <typename T>
  std::span<T> Span() const {
    return {static_cast<T*>(data), size};
  }
};

/// The five growable arrays of one customer.
struct BlockSet {
  BlockHandle contain_counts;     // int32_t
  BlockHandle contain_histogram;  // uint32_t
  BlockHandle ewma_values;        // double
  BlockHandle ewma_stamps;        // int32_t
  BlockHandle current_symbols;    // core::Symbol

  size_t CapacityBytes() const {
    return size_t{contain_counts.capacity_bytes} +
           contain_histogram.capacity_bytes + ewma_values.capacity_bytes +
           ewma_stamps.capacity_bytes + current_symbols.capacity_bytes;
  }
};

/// Ensures `h` can hold `n` elements of T, reallocating from the arena (the
/// old block goes back to its size-class freelist). Leaves h->size alone.
template <typename T>
void EnsureBlockCapacity(BlockArena* arena, BlockHandle* h, size_t n) {
  const size_t min_bytes = n * sizeof(T);
  if (min_bytes <= h->capacity_bytes) return;
  size_t capacity = 0;
  void* fresh = arena->Allocate(min_bytes, &capacity);
  if (h->size > 0) {
    std::memcpy(fresh, h->data, size_t{h->size} * sizeof(T));
  }
  arena->Release(h->data, h->capacity_bytes);
  h->data = fresh;
  h->capacity_bytes = static_cast<uint32_t>(capacity);
}

/// Grows the logical size to `n`, zero-filling [old_size, n) — the same
/// contract as resizing a value-initialized std::vector.
template <typename T>
std::span<T> GrowBlock(BlockArena* arena, BlockHandle* h, size_t n) {
  EnsureBlockCapacity<T>(arena, h, n);
  if (n > h->size) {
    std::memset(static_cast<T*>(h->data) + h->size, 0,
                (n - h->size) * sizeof(T));
    h->size = static_cast<uint32_t>(n);
  }
  return h->Span<T>();
}

/// One customer's state: every tracker, scorer and monitor scalar plus the
/// handles of its five blocks, in one record, so a customer is one address
/// (the fleet prefetches it ahead of use). Member initializers match those
/// of the core classes' State structs.
struct SlotState {
  retail::CustomerId customer = retail::kInvalidCustomer;
  // Tracker scalars.
  int32_t windows_seen = 0;
  uint32_t num_seen = 0;
  // Scorer scalars.
  int32_t current_window = 0;
  retail::Day last_observed_day = -1;
  // Monitor debounce scalars.
  int32_t low_streak = 0;
  uint8_t has_previous = 0;
  double incremental_total = 0.0;
  double ewma_total = 0.0;
  double last_stability = 1.0;
  BlockSet blocks;
};
// 49 bytes of scalars padded to 56, plus five 16-byte block handles. Growth
// here is growth of every customer's footprint.
static_assert(sizeof(SlotState) == 136, "SlotState grew");

// One view satisfying all three state concepts of core/state_kernel.h (their
// accessors do not overlap) over one SlotState. The kernels it instantiates
// are the very same that run inside StabilityMonitor, which is what makes a
// stored customer byte-identical to a StabilityMonitor fed the same stream
// by construction.
class SlotRef {
 public:
  SlotRef(SlotState* slot, BlockArena* arena) : s_(slot), arena_(arena) {}

  // TrackerState.
  int32_t& WindowsSeen() { return s_->windows_seen; }
  uint32_t& NumSeen() { return s_->num_seen; }
  double& IncrementalTotal() { return s_->incremental_total; }
  double& EwmaTotal() { return s_->ewma_total; }
  std::span<int32_t> ContainCounts() {
    return s_->blocks.contain_counts.Span<int32_t>();
  }
  std::span<uint32_t> ContainHistogram() {
    return s_->blocks.contain_histogram.Span<uint32_t>();
  }
  std::span<double> EwmaValues() {
    return s_->blocks.ewma_values.Span<double>();
  }
  std::span<int32_t> EwmaStamps() {
    return s_->blocks.ewma_stamps.Span<int32_t>();
  }
  std::span<int32_t> GrowContainCounts(size_t n) {
    return GrowBlock<int32_t>(arena_, &s_->blocks.contain_counts, n);
  }
  std::span<uint32_t> GrowContainHistogram(size_t n) {
    return GrowBlock<uint32_t>(arena_, &s_->blocks.contain_histogram, n);
  }
  void GrowEwma(size_t n) {
    GrowBlock<double>(arena_, &s_->blocks.ewma_values, n);
    GrowBlock<int32_t>(arena_, &s_->blocks.ewma_stamps, n);
  }
  void ClearTracker() {
    WindowsSeen() = 0;
    NumSeen() = 0;
    IncrementalTotal() = 0.0;
    EwmaTotal() = 0.0;
    // Blocks keep their capacity (GrowBlock zero-fills on regrowth).
    BlockSet& b = s_->blocks;
    b.contain_counts.size = 0;
    b.contain_histogram.size = 0;
    b.ewma_values.size = 0;
    b.ewma_stamps.size = 0;
  }

  // ScorerState.
  std::span<const core::Symbol> CurrentSymbols() const {
    return s_->blocks.current_symbols.Span<const core::Symbol>();
  }
  void InsertCurrentSymbol(size_t pos, core::Symbol symbol) {
    BlockHandle& h = s_->blocks.current_symbols;
    const size_t old_size = h.size;
    EnsureBlockCapacity<core::Symbol>(arena_, &h, old_size + 1);
    auto* data = static_cast<core::Symbol*>(h.data);
    std::memmove(data + pos + 1, data + pos,
                 (old_size - pos) * sizeof(core::Symbol));
    data[pos] = symbol;
    h.size = static_cast<uint32_t>(old_size + 1);
  }
  void AppendCurrentSymbol(core::Symbol symbol) {
    BlockHandle& h = s_->blocks.current_symbols;
    EnsureBlockCapacity<core::Symbol>(arena_, &h, size_t{h.size} + 1);
    static_cast<core::Symbol*>(h.data)[h.size] = symbol;
    ++h.size;
  }
  void ReserveCurrentSymbols(size_t n) {
    EnsureBlockCapacity<core::Symbol>(arena_, &s_->blocks.current_symbols,
                                      n);
  }
  void ClearCurrentSymbols() { s_->blocks.current_symbols.size = 0; }
  int32_t& CurrentWindow() { return s_->current_window; }
  retail::Day& LastObservedDay() { return s_->last_observed_day; }

  // MonitorState.
  double& LastStability() { return s_->last_stability; }
  uint8_t& HasPrevious() { return s_->has_previous; }
  int32_t& LowStreak() { return s_->low_streak; }

 private:
  SlotState* s_;
  BlockArena* arena_;
};

}  // namespace

/// One shard. Heap-allocated (the mutex is immovable) so the store itself
/// stays movable, which Result<CustomerStateStore> requires.
struct Shard {
  explicit Shard(const StateStoreOptions& options)
      : pows(options.scorer.significance.alpha,
             options.scorer.significance.max_abs_exponent,
             options.scorer.significance.ewma_lambda) {}

  SlotRef Ref(size_t slot) { return SlotRef(&slots[slot], &arena); }

  mutable std::mutex mutex;
  CustomerIndex index;
  /// One record per customer, in creation order.
  std::vector<SlotState> slots;
  /// Backs every slot's blocks.
  BlockArena arena;
  /// Interned power tables shared by every customer in the shard. Guarded
  /// by `mutex` like the rest.
  core::PowCache pows;
};

CustomerStateStore::CustomerStateStore(
    StateStoreOptions options, std::vector<std::unique_ptr<Shard>> shards)
    : options_(std::move(options)), shards_(std::move(shards)) {}

CustomerStateStore::~CustomerStateStore() = default;
CustomerStateStore::CustomerStateStore(CustomerStateStore&&) noexcept =
    default;
CustomerStateStore& CustomerStateStore::operator=(
    CustomerStateStore&&) noexcept = default;

Result<CustomerStateStore> CustomerStateStore::Make(
    StateStoreOptions options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  // Validates the scorer options and policy; the monitor itself is unused.
  CHURNLAB_RETURN_NOT_OK(
      core::StabilityMonitor::Make(options.scorer, options.policy).status());
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(options.num_shards);
  for (size_t i = 0; i < options.num_shards; ++i) {
    shards.push_back(std::make_unique<Shard>(options));
  }
  return CustomerStateStore(std::move(options), std::move(shards));
}

std::mutex& CustomerStateStore::ShardMutex(size_t shard) const {
  return shards_[shard]->mutex;
}

size_t CustomerStateStore::ShardCustomers(size_t shard) const {
  std::lock_guard<std::mutex> lock(shards_[shard]->mutex);
  return shards_[shard]->slots.size();
}

size_t CustomerStateStore::NumCustomers() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->slots.size();
  }
  return total;
}

// --------------------------------------------------------------------------
// CustomerRef
// --------------------------------------------------------------------------

retail::CustomerId CustomerStateStore::CustomerRef::customer() const {
  return shard_->slots[slot_].customer;
}

Result<std::vector<core::StabilityAlert>>
CustomerStateStore::CustomerRef::Observe(
    retail::Day day, const std::vector<core::Symbol>& symbols) {
  SlotRef ref = shard_->Ref(slot_);
  return core::kernel::MonitorObserve(
      ref, ref, ref, store_->options_.scorer, store_->options_.policy,
      shard_->pows, day, std::span<const core::Symbol>(symbols));
}

Result<std::vector<core::StabilityAlert>>
CustomerStateStore::CustomerRef::AdvanceTo(retail::Day day) {
  SlotRef ref = shard_->Ref(slot_);
  return core::kernel::MonitorAdvanceTo(ref, ref, ref,
                                        store_->options_.scorer,
                                        store_->options_.policy,
                                        shard_->pows, day);
}

Result<std::vector<core::StabilityAlert>>
CustomerStateStore::CustomerRef::Finish() {
  SlotRef ref = shard_->Ref(slot_);
  return core::kernel::MonitorFinish(ref, ref, ref, store_->options_.scorer,
                                     store_->options_.policy, shard_->pows);
}

double CustomerStateStore::CustomerRef::last_stability() const {
  return shard_->slots[slot_].last_stability;
}

size_t CustomerStateStore::CustomerRef::MemoryUsage() const {
  return sizeof(SlotState) + shard_->slots[slot_].blocks.CapacityBytes();
}

// --------------------------------------------------------------------------
// ShardAccessor
// --------------------------------------------------------------------------

CustomerStateStore::CustomerRef
CustomerStateStore::ShardAccessor::GetOrCreate(retail::CustomerId customer) {
  Shard& shard = *store_->shards_[shard_index_];
  const uint32_t found = shard.index.Find(customer);
  if (found != CustomerIndex::kNoSlot) {
    return CustomerRef(store_, &shard, found);
  }
  // First touch. Storage is appended first and the index entry published
  // last, with full rollback if any step throws (slot growth, index
  // growth), so the shard never ends up with an index entry pointing at a
  // slot that was never built.
  static Failpoint* const create_failpoint =
      FailpointRegistry::Global().Get("serve.state.create");
  const size_t slot = shard.slots.size();
  try {
    if (create_failpoint->armed()) {
      // Creation has no Status channel, so the *error* action surfaces as
      // FailpointException too (Evaluate throws for *throw* on its own).
      if (!create_failpoint->Evaluate(customer).ok()) {
        throw FailpointException("serve.state.create");
      }
    }
    shard.slots.emplace_back().customer = customer;
    shard.index.Insert(customer, static_cast<uint32_t>(slot));
  } catch (...) {
    if (shard.slots.size() > slot) shard.slots.pop_back();
    shard.index.Erase(customer);
    throw;
  }
  return CustomerRef(store_, &shard, slot);
}

Result<CustomerStateStore::CustomerRef>
CustomerStateStore::ShardAccessor::Find(retail::CustomerId customer) {
  Shard& shard = *store_->shards_[shard_index_];
  const uint32_t slot = shard.index.Find(customer);
  if (slot == CustomerIndex::kNoSlot) {
    return Status::NotFound("customer " + std::to_string(customer) +
                            " is not held by the fleet");
  }
  return CustomerRef(store_, &shard, slot);
}

size_t CustomerStateStore::ShardAccessor::size() const {
  return store_->shards_[shard_index_]->slots.size();
}

retail::CustomerId CustomerStateStore::ShardAccessor::CustomerAt(
    size_t slot) const {
  return store_->shards_[shard_index_]->slots[slot].customer;
}

CustomerStateStore::CustomerRef CustomerStateStore::ShardAccessor::At(
    size_t slot) {
  return CustomerRef(store_, store_->shards_[shard_index_].get(), slot);
}

void CustomerStateStore::ShardAccessor::PrefetchBucket(
    retail::CustomerId customer) const {
  const void* bucket =
      store_->shards_[shard_index_]->index.BucketAddress(customer);
  if (bucket != nullptr) __builtin_prefetch(bucket);
}

void CustomerStateStore::ShardAccessor::PrefetchSlot(
    retail::CustomerId customer) const {
  const Shard& shard = *store_->shards_[shard_index_];
  const uint32_t slot = shard.index.Find(customer);
  if (slot != CustomerIndex::kNoSlot) {
    PrefetchRange(&shard.slots[slot], sizeof(SlotState));
  }
}

void CustomerStateStore::ShardAccessor::PrefetchSymbols(
    retail::CustomerId customer) const {
  const Shard& shard = *store_->shards_[shard_index_];
  const uint32_t slot = shard.index.Find(customer);
  if (slot != CustomerIndex::kNoSlot) {
    const BlockHandle& symbols = shard.slots[slot].blocks.current_symbols;
    PrefetchRange(symbols.data, size_t{symbols.size} * sizeof(core::Symbol));
  }
}

// --------------------------------------------------------------------------
// Snapshot frames + accounting
// --------------------------------------------------------------------------

void CustomerStateStore::SaveShardState(size_t shard,
                                        BinaryWriter* writer) const {
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mutex);
  writer->WriteVarint(s.slots.size());
  for (size_t slot = 0; slot < s.slots.size(); ++slot) {
    writer->WriteVarint(s.slots[slot].customer);
    SlotRef ref = s.Ref(slot);
    core::kernel::MonitorSaveState(ref, ref, ref, writer);
  }
}

Status CustomerStateStore::LoadShardState(size_t shard,
                                          BinaryReader* reader) {
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mutex);
  // All-or-nothing: parse into scratch storage and swap it in only once the
  // whole frame decoded, so a corrupt record cannot leave the shard
  // half-replaced.
  CustomerIndex index;
  std::vector<SlotState> slots;
  BlockArena arena;
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t count, reader->ReadVarint());
  // The count is an untrusted length prefix: every customer needs at least
  // one byte of payload, so a count beyond the remaining bytes is
  // corruption — reject it before sizing any allocation from it.
  if (count > reader->remaining()) {
    return Status::InvalidArgument(
        "snapshot shard customer count (" + std::to_string(count) +
        ") exceeds remaining snapshot bytes (" +
        std::to_string(reader->remaining()) + ")");
  }
  index.Reserve(count);
  slots.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t id, reader->ReadVarint());
    if (id >= retail::kInvalidCustomer) {
      return Status::IOError("snapshot shard holds an invalid customer id");
    }
    const auto customer = static_cast<retail::CustomerId>(id);
    if (ShardOf(customer) != shard) {
      return Status::IOError(
          "snapshot customer hashed to a different shard; the snapshot was "
          "written with a different shard count or is corrupted");
    }
    if (index.Find(customer) != CustomerIndex::kNoSlot) {
      return Status::IOError("snapshot shard repeats a customer id");
    }
    index.Insert(customer, static_cast<uint32_t>(i));
    slots.emplace_back().customer = customer;
    SlotRef ref(&slots.back(), &arena);
    CHURNLAB_RETURN_NOT_OK(core::kernel::MonitorLoadState(
        ref, ref, ref, options_.policy, reader));
  }
  s.index = std::move(index);
  s.slots = std::move(slots);
  s.arena = std::move(arena);
  return Status::OK();
}

StateMemoryStats CustomerStateStore::ShardMemoryUsage(size_t shard) const {
  const Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mutex);
  StateMemoryStats stats;
  stats.index_bytes = s.index.MemoryBytes();
  stats.customers = s.slots.size();
  stats.scalar_bytes = s.slots.capacity() * sizeof(SlotState);
  stats.block_bytes = s.arena.bytes_in_use();
  stats.arena_reserved_bytes = s.arena.bytes_reserved();
  stats.shared_bytes = s.pows.MemoryUsage();
  stats.total_bytes =
      stats.scalar_bytes + stats.index_bytes + stats.shared_bytes +
      std::max(stats.block_bytes, stats.arena_reserved_bytes);
  return stats;
}

StateMemoryStats CustomerStateStore::MemoryUsage() const {
  StateMemoryStats total;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    total += ShardMemoryUsage(shard);
  }
  return total;
}

}  // namespace serve
}  // namespace churnlab
