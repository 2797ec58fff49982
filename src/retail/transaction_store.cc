#include "retail/transaction_store.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>

namespace churnlab {
namespace retail {

Status TransactionStore::Append(Receipt receipt) {
  if (finalized_) {
    return Status::InvalidArgument("cannot append to a finalized store");
  }
  if (receipt.customer == kInvalidCustomer) {
    return Status::InvalidArgument("receipt has invalid customer id");
  }
  if (receipt.day < 0) {
    return Status::InvalidArgument("receipt day must be >= 0, got " +
                                   std::to_string(receipt.day));
  }
  std::vector<ItemId>& items = receipt.items;
  if (std::adjacent_find(items.begin(), items.end(),
                         std::greater_equal<ItemId>()) != items.end()) {
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
  }
  if (!receipt.items.empty() && receipt.items.back() == kInvalidItem) {
    return Status::InvalidArgument("receipt contains kInvalidItem");
  }
  if (receipts_.empty()) {
    min_day_ = receipt.day;
    max_day_ = receipt.day;
  } else {
    min_day_ = std::min(min_day_, receipt.day);
    max_day_ = std::max(max_day_, receipt.day);
  }
  if (!receipt.items.empty()) {
    item_id_bound_ =
        std::max(item_id_bound_, static_cast<size_t>(receipt.items.back()) + 1);
  }
  receipts_.push_back(std::move(receipt));
  distinct_items_valid_ = false;
  return Status::OK();
}

void TransactionStore::Finalize() {
  if (finalized_) return;
  const auto by_customer_day = [](const Receipt& a, const Receipt& b) {
    if (a.customer != b.customer) return a.customer < b.customer;
    return a.day < b.day;
  };
  // SaveBinary writes (customer, day) order, so a loaded dataset pays only
  // this check; a stable sort of sorted input would be the identity anyway.
  if (!std::is_sorted(receipts_.begin(), receipts_.end(), by_customer_day)) {
    std::stable_sort(receipts_.begin(), receipts_.end(), by_customer_day);
  }
  customer_index_.clear();
  customers_sorted_.clear();
  size_t begin = 0;
  for (size_t i = 0; i <= receipts_.size(); ++i) {
    if (i == receipts_.size() ||
        (i > begin && receipts_[i].customer != receipts_[begin].customer)) {
      if (i > begin) {
        const CustomerId customer = receipts_[begin].customer;
        customer_index_.emplace(customer, CustomerSlot{begin, i});
        customers_sorted_.push_back(customer);
      }
      begin = i;
    }
  }
  finalized_ = true;
}

std::span<const Receipt> TransactionStore::History(CustomerId customer) const {
  assert(finalized_);
  const auto it = customer_index_.find(customer);
  if (it == customer_index_.end()) return {};
  return std::span<const Receipt>(receipts_.data() + it->second.begin,
                                  it->second.end - it->second.begin);
}

const std::vector<CustomerId>& TransactionStore::Customers() const {
  assert(finalized_);
  return customers_sorted_;
}

std::span<const Receipt> TransactionStore::AllReceipts() const {
  assert(finalized_);
  return std::span<const Receipt>(receipts_.data(), receipts_.size());
}

std::vector<const Receipt*> TransactionStore::DayOrdered(
    int64_t from_day, int64_t to_day) const {
  assert(finalized_);
  std::vector<const Receipt*> order;
  order.reserve(receipts_.size());
  Day low = std::numeric_limits<Day>::max();
  Day high = 0;
  for (const Receipt& receipt : receipts_) {
    if (receipt.day < from_day || receipt.day >= to_day) continue;
    order.push_back(&receipt);
    low = std::min(low, receipt.day);
    high = std::max(high, receipt.day);
  }
  // LSD radix sort on the 32-bit key day - low. Each pass is a stable
  // counting sort on one digit, so the result is ordered by (day, store
  // position); passes stop once the remaining digits of every key are zero
  // (one pass for histories under 2^11 days).
  constexpr int kDigitBits = 11;
  constexpr uint32_t kDigitMask = (uint32_t{1} << kDigitBits) - 1;
  const uint32_t max_key =
      order.empty() ? 0 : static_cast<uint32_t>(high - low);
  std::vector<const Receipt*> next;
  std::vector<size_t> offsets;
  for (int shift = 0; shift < 32 && (max_key >> shift) != 0;
       shift += kDigitBits) {
    const auto digit = [&](const Receipt* receipt) {
      return (static_cast<uint32_t>(receipt->day - low) >> shift) &
             kDigitMask;
    };
    offsets.assign(kDigitMask + 2, 0);
    for (const Receipt* receipt : order) ++offsets[digit(receipt) + 1];
    for (size_t d = 1; d < offsets.size(); ++d) offsets[d] += offsets[d - 1];
    next.resize(order.size());
    for (const Receipt* receipt : order) {
      next[offsets[digit(receipt)]++] = receipt;
    }
    order.swap(next);
  }
  return order;
}

size_t TransactionStore::CountDistinctItems() const {
  if (distinct_items_valid_) return distinct_items_cache_;
  std::vector<bool> seen(item_id_bound_, false);
  size_t count = 0;
  for (const Receipt& receipt : receipts_) {
    for (const ItemId item : receipt.items) {
      if (!seen[item]) {
        seen[item] = true;
        ++count;
      }
    }
  }
  distinct_items_cache_ = count;
  distinct_items_valid_ = true;
  return count;
}

}  // namespace retail
}  // namespace churnlab
