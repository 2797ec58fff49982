#include "retail/transaction_store.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace churnlab {
namespace retail {
namespace {

Receipt MakeReceipt(CustomerId customer, Day day,
                    std::vector<ItemId> items, double spend = 10.0) {
  Receipt receipt;
  receipt.customer = customer;
  receipt.day = day;
  receipt.items = std::move(items);
  receipt.spend = spend;
  return receipt;
}

TEST(TransactionStore, AppendAndFinalize) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(2, 5, {1, 2})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(1, 3, {3})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(2, 1, {4})).ok());
  EXPECT_FALSE(store.finalized());
  store.Finalize();
  EXPECT_TRUE(store.finalized());
  EXPECT_EQ(store.num_receipts(), 3u);
  EXPECT_EQ(store.num_customers(), 2u);
}

TEST(TransactionStore, HistoryIsChronological) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(7, 30, {1})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(7, 10, {2})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(7, 20, {3})).ok());
  store.Finalize();
  const auto history = store.History(7);
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].day, 10);
  EXPECT_EQ(history[1].day, 20);
  EXPECT_EQ(history[2].day, 30);
}

TEST(TransactionStore, HistoryOfUnknownCustomerIsEmpty) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(1, 0, {1})).ok());
  store.Finalize();
  EXPECT_TRUE(store.History(99).empty());
}

TEST(TransactionStore, ItemsSortedAndDeduplicated) {
  // Unsorted, duplicated, sorted-with-an-adjacent-duplicate, descending and
  // already strictly ascending baskets all end up as sorted sets.
  const std::vector<std::pair<std::vector<ItemId>, std::vector<ItemId>>>
      cases = {{{5, 1, 5, 3, 1}, {1, 3, 5}},
               {{1, 3, 3, 5}, {1, 3, 5}},
               {{4, 2}, {2, 4}},
               {{7, 7}, {7}},
               {{1, 3, 5}, {1, 3, 5}}};
  TransactionStore store;
  for (size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(store.Append(MakeReceipt(1, static_cast<Day>(i),
                                         cases[i].first)).ok());
  }
  store.Finalize();
  const auto history = store.History(1);
  ASSERT_EQ(history.size(), cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(history[i].items, cases[i].second) << "case " << i;
  }
  EXPECT_EQ(store.item_id_bound(), 8u);
}

TEST(TransactionStore, CustomersSortedAscending) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(9, 0, {1})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(2, 0, {1})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(5, 0, {1})).ok());
  store.Finalize();
  EXPECT_EQ(store.Customers(), (std::vector<CustomerId>{2, 5, 9}));
}

TEST(TransactionStore, DayRangeTracked) {
  TransactionStore store;
  EXPECT_EQ(store.max_day(), -1);
  ASSERT_TRUE(store.Append(MakeReceipt(1, 42, {1})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(1, 7, {1})).ok());
  EXPECT_EQ(store.min_day(), 7);
  EXPECT_EQ(store.max_day(), 42);
}

TEST(TransactionStore, ValidationErrors) {
  TransactionStore store;
  EXPECT_TRUE(store.Append(MakeReceipt(kInvalidCustomer, 0, {1}))
                  .IsInvalidArgument());
  EXPECT_TRUE(store.Append(MakeReceipt(1, -1, {1})).IsInvalidArgument());
  EXPECT_TRUE(
      store.Append(MakeReceipt(1, 0, {kInvalidItem})).IsInvalidArgument());
  store.Finalize();
  EXPECT_TRUE(store.Append(MakeReceipt(1, 0, {1})).IsInvalidArgument());
}

TEST(TransactionStore, EmptyBasketAllowed) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(1, 0, {})).ok());
  store.Finalize();
  EXPECT_EQ(store.History(1).size(), 1u);
}

TEST(TransactionStore, CountDistinctItems) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(1, 0, {1, 2})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(2, 0, {2, 7})).ok());
  store.Finalize();
  EXPECT_EQ(store.CountDistinctItems(), 3u);
  EXPECT_EQ(store.item_id_bound(), 8u);
  // Cached second call returns the same.
  EXPECT_EQ(store.CountDistinctItems(), 3u);
}

TEST(TransactionStore, FinalizeIsIdempotent) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(1, 0, {1})).ok());
  store.Finalize();
  store.Finalize();
  EXPECT_EQ(store.num_receipts(), 1u);
}

TEST(TransactionStore, StableOrderForSameDayReceipts) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(1, 5, {1}, 1.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(1, 5, {2}, 2.0)).ok());
  store.Finalize();
  const auto history = store.History(1);
  ASSERT_EQ(history.size(), 2u);
  EXPECT_DOUBLE_EQ(history[0].spend, 1.0);  // insertion order preserved
  EXPECT_DOUBLE_EQ(history[1].spend, 2.0);
}

TEST(TransactionStore, SortedInputKeepsAppendOrderOfSameKeyReceipts) {
  // Already in (customer, day) order, so Finalize leaves the store as
  // appended; same-key receipts keep their append order.
  TransactionStore store;
  const std::vector<std::pair<CustomerId, Day>> keys = {
      {1, 2}, {1, 5}, {1, 5}, {1, 5}, {2, 0}, {2, 0}, {3, 9}};
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(store.Append(MakeReceipt(keys[i].first, keys[i].second, {1},
                                         static_cast<double>(i))).ok());
  }
  store.Finalize();
  const auto all = store.AllReceipts();
  ASSERT_EQ(all.size(), keys.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_DOUBLE_EQ(all[i].spend, static_cast<double>(i));
  }
}

TEST(TransactionStore, OutOfOrderInputIsStablySorted) {
  TransactionStore store;
  // spend records the append position.
  ASSERT_TRUE(store.Append(MakeReceipt(2, 5, {1}, 0.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(1, 3, {1}, 1.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(2, 5, {1}, 2.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(2, 1, {1}, 3.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(1, 3, {1}, 4.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(2, 5, {1}, 5.0)).ok());
  store.Finalize();
  std::vector<double> order;
  for (const Receipt& receipt : store.AllReceipts()) {
    order.push_back(receipt.spend);
  }
  EXPECT_EQ(order, (std::vector<double>{1.0, 4.0, 3.0, 0.0, 2.0, 5.0}));
  EXPECT_EQ(store.Customers(), (std::vector<CustomerId>{1, 2}));
  EXPECT_EQ(store.History(2).size(), 4u);
}

// The oracle for DayOrdered: the store's receipts in [from_day, to_day),
// stably sorted by day.
std::vector<const Receipt*> DayOrderOracle(const TransactionStore& store,
                                           int64_t from_day, int64_t to_day) {
  std::vector<const Receipt*> order;
  for (const Receipt& receipt : store.AllReceipts()) {
    if (receipt.day >= from_day && receipt.day < to_day) {
      order.push_back(&receipt);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Receipt* a, const Receipt* b) {
                     return a->day < b->day;
                   });
  return order;
}

TEST(TransactionStore, DayOrderedMatchesStableSortOracle) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // Day ranges needing one, two and three radix passes.
  for (const Day max_day : {Day{60}, Day{50000}, Day{300000000}}) {
    for (const uint32_t seed : {1u, 2u, 3u}) {
      std::mt19937 rng(seed);
      // Few customers and days so (customer, day) repeats often.
      std::uniform_int_distribution<CustomerId> customer(1, 12);
      std::uniform_int_distribution<int> day_index(0, 40);
      std::vector<Day> days(41);
      std::uniform_int_distribution<Day> any_day(0, max_day);
      for (Day& day : days) day = any_day(rng);
      TransactionStore store;
      for (int i = 0; i < 600; ++i) {
        ASSERT_TRUE(store.Append(MakeReceipt(customer(rng),
                                             days[day_index(rng)], {1},
                                             static_cast<double>(i))).ok());
      }
      store.Finalize();
      const Day mid = days[0];
      const std::vector<std::pair<int64_t, int64_t>> bounds = {
          {0, kMax},          {mid, kMax},      {0, mid},
          {mid, mid + 1},     {mid, mid},       {max_day + 1, kMax},
          {-5, 0},            {-5, mid},        {int64_t{1} << 40, kMax},
          {std::numeric_limits<int64_t>::min(), kMax}};
      for (const auto& [from, to] : bounds) {
        EXPECT_EQ(store.DayOrdered(from, to), DayOrderOracle(store, from, to))
            << "max_day " << max_day << " seed " << seed << " [" << from
            << ", " << to << ")";
      }
      EXPECT_EQ(store.DayOrdered(), DayOrderOracle(store, 0, kMax));
    }
  }
}

TEST(TransactionStore, DayOrderedSpansTheWholeDayRange) {
  // Days 0 and INT32_MAX in one store: ordered correctly, with nothing
  // sized by the 2^31-day span.
  constexpr Day kLast = std::numeric_limits<Day>::max();
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(1, kLast, {1}, 0.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(2, 0, {1}, 1.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(1, 0, {1}, 2.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(2, kLast, {1}, 3.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(2, kLast - 1, {1}, 4.0)).ok());
  store.Finalize();
  const auto spends = [](const std::vector<const Receipt*>& order) {
    std::vector<double> out;
    for (const Receipt* receipt : order) out.push_back(receipt->spend);
    return out;
  };
  EXPECT_EQ(spends(store.DayOrdered()),
            (std::vector<double>{2.0, 1.0, 4.0, 0.0, 3.0}));
  EXPECT_EQ(spends(store.DayOrdered(kLast)),
            (std::vector<double>{0.0, 3.0}));
  EXPECT_EQ(spends(store.DayOrdered(0, kLast)),
            (std::vector<double>{2.0, 1.0, 4.0}));
  EXPECT_TRUE(store.DayOrdered(int64_t{kLast} + 1).empty());
}

TEST(TransactionStore, DayOrderedOfEmptyStoreIsEmpty) {
  TransactionStore store;
  store.Finalize();
  EXPECT_TRUE(store.DayOrdered().empty());
}

TEST(TransactionStore, AllReceiptsSpansEveryCustomer) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(3, 1, {1})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(1, 2, {2})).ok());
  store.Finalize();
  const auto all = store.AllReceipts();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].customer, 1u);  // sorted by customer first
  EXPECT_EQ(all[1].customer, 3u);
}

}  // namespace
}  // namespace retail
}  // namespace churnlab
