// Scheduling-substrate tests: Chase-Lev deque (LIFO owner / FIFO thief
// discipline, growth, concurrent-steal exactness), the intrusive MPMC FIFO
// (order, batches, the stub, a push caught between its two halves), the
// 3-tier ReadyLists policy of paper Sec. III, and the idle gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "sched/chase_lev_deque.hpp"
#include "sched/idle_wait.hpp"
#include "sched/mpmc_queue.hpp"
#include "sched/ready_lists.hpp"

namespace smpss {

// Splits a push into its two halves (friend of IntrusiveMpmcFifo).
struct MpmcFifoTestPeer {
  template <typename T>
  static T** publish(IntrusiveMpmcFifo<T>& q, T* item) {
    return q.publish(item);
  }
  template <typename T>
  static void link(T** prev, T* item) {
    IntrusiveMpmcFifo<T>::link(prev, item);
  }
};

namespace {

struct Item {
  explicit Item(int v) : value(v) {}
  int value;
  Item* queue_next = nullptr;
};

// --- ChaseLevDeque --------------------------------------------------------------

TEST(ChaseLevDeque, OwnerPopsLifo) {
  ChaseLevDeque<Item> d;
  Item a(1), b(2), c(3);
  d.push_bottom(&a);
  d.push_bottom(&b);
  d.push_bottom(&c);
  EXPECT_EQ(d.pop_bottom()->value, 3);
  EXPECT_EQ(d.pop_bottom()->value, 2);
  EXPECT_EQ(d.pop_bottom()->value, 1);
  EXPECT_EQ(d.pop_bottom(), nullptr);
}

TEST(ChaseLevDeque, ThiefStealsFifo) {
  ChaseLevDeque<Item> d;
  Item a(1), b(2), c(3);
  d.push_bottom(&a);
  d.push_bottom(&b);
  d.push_bottom(&c);
  EXPECT_EQ(d.steal_top()->value, 1);  // oldest first
  EXPECT_EQ(d.steal_top()->value, 2);
  EXPECT_EQ(d.pop_bottom()->value, 3);
  EXPECT_EQ(d.steal_top(), nullptr);
}

TEST(ChaseLevDeque, GrowsPastInitialCapacity) {
  ChaseLevDeque<Item> d(16);
  std::vector<Item> items;
  items.reserve(1000);
  for (int i = 0; i < 1000; ++i) items.emplace_back(i);
  for (auto& it : items) d.push_bottom(&it);
  EXPECT_EQ(d.size_estimate(), 1000u);
  for (int i = 999; i >= 0; --i) EXPECT_EQ(d.pop_bottom()->value, i);
}

TEST(ChaseLevDeque, ConcurrentStealsDeliverEachItemOnce) {
  constexpr int kItems = 20000;
  constexpr int kThieves = 6;
  ChaseLevDeque<Item> d;
  std::vector<Item> items;
  items.reserve(kItems);
  for (int i = 0; i < kItems; ++i) items.emplace_back(i);

  std::atomic<bool> go{false};
  std::atomic<int> taken{0};
  std::vector<std::atomic<int>> seen(kItems);
  for (auto& s : seen) s.store(0);

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t)
    thieves.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      while (taken.load(std::memory_order_relaxed) < kItems) {
        if (Item* it = d.steal_top()) {
          seen[static_cast<std::size_t>(it->value)].fetch_add(1);
          taken.fetch_add(1);
        }
      }
    });

  go.store(true, std::memory_order_release);
  // Owner interleaves pushes and occasional pops.
  for (int i = 0; i < kItems; ++i) {
    d.push_bottom(&items[static_cast<std::size_t>(i)]);
    if (i % 7 == 0) {
      if (Item* it = d.pop_bottom()) {
        seen[static_cast<std::size_t>(it->value)].fetch_add(1);
        taken.fetch_add(1);
      }
    }
  }
  while (taken.load() < kItems) {
    if (Item* it = d.pop_bottom()) {
      seen[static_cast<std::size_t>(it->value)].fetch_add(1);
      taken.fetch_add(1);
    }
  }
  for (auto& t : thieves) t.join();
  for (int i = 0; i < kItems; ++i)
    ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
}

// --- IntrusiveMpmcFifo -------------------------------------------------------------

TEST(MpmcFifo, FifoOrder) {
  IntrusiveMpmcFifo<Item> q;
  Item a(1), b(2), c(3);
  q.push_back(&a);
  q.push_back(&b);
  q.push_back(&c);
  EXPECT_EQ(q.pop_front()->value, 1);
  EXPECT_EQ(q.pop_front()->value, 2);
  EXPECT_EQ(q.pop_front()->value, 3);
  EXPECT_EQ(q.pop_front(), nullptr);
  EXPECT_TRUE(q.empty_estimate());
}

TEST(MpmcFifo, BatchPushKeepsOrder) {
  IntrusiveMpmcFifo<Item> q;
  Item a(1), b(2), c(3), d(4), e(5), f(6);
  Item* three[] = {&b, &c, &d};
  Item* one[] = {&f};
  q.push_back(&a);
  q.push_back_batch(three, 3);
  q.push_back(&e);
  q.push_back_batch(one, 1);
  q.push_back_batch(one, 0);  // a no-op
  for (int v = 1; v <= 6; ++v) {
    Item* it = q.try_pop_front();
    ASSERT_NE(it, nullptr) << "item " << v;
    EXPECT_EQ(it->value, v);
  }
  EXPECT_EQ(q.try_pop_front(), nullptr);
  // A batch into a drained list.
  q.push_back_batch(three, 3);
  EXPECT_EQ(q.pop_front(), &b);
  EXPECT_EQ(q.pop_front(), &c);
  EXPECT_EQ(q.pop_front(), &d);
  EXPECT_EQ(q.pop_front(), nullptr);
}

// The list keeps an internal stub linked whenever it runs dry; every
// empty/non-empty transition must hand out only pushed items, in order, and
// leave the list reading empty once drained.
TEST(MpmcFifo, StubNeverReturnedAndDrainReadsEmpty) {
  IntrusiveMpmcFifo<Item> q;
  EXPECT_TRUE(q.empty_estimate());
  EXPECT_EQ(q.pop_front(), nullptr);
  std::vector<Item> items;
  for (int i = 0; i < 64; ++i) items.emplace_back(i);
  int next_push = 0, next_pop = 0;
  // Depths 1, 2, 3, 1, 2, 3, ...: each round pushes some, pops all.
  for (int round = 0; next_push + 3 <= 64; ++round) {
    const int depth = 1 + round % 3;
    for (int k = 0; k < depth; ++k) q.push_back(&items[next_push++]);
    EXPECT_FALSE(q.empty_estimate());
    while (next_pop < next_push) {
      Item* it = round % 2 ? q.try_pop_front() : q.pop_front();
      ASSERT_NE(it, nullptr);
      ASSERT_EQ(it, &items[static_cast<std::size_t>(next_pop)]);
      EXPECT_EQ(it->queue_next, nullptr);
      ++next_pop;
    }
    EXPECT_TRUE(q.empty_estimate()) << "after round " << round;
    EXPECT_EQ(q.try_pop_front(), nullptr);
  }
}

// Four producers (two pushing one by one, two in batches of up to 5) and
// four try_pop consumers. Pops are serialized, so every consumer must see
// each producer's items in push order, and every item leaves exactly once.
// A lost item fails the count at the deadline instead of hanging the suite.
TEST(MpmcFifo, ConcurrentProducersKeepTheirOrder) {
  constexpr int kPerProducer = 5000;
  constexpr int kProducers = 4, kConsumers = 4;
  constexpr int kTotal = kProducers * kPerProducer;
  IntrusiveMpmcFifo<Item> q;
  std::vector<Item> storage;
  storage.reserve(kTotal);
  for (int v = 0; v < kTotal; ++v) storage.emplace_back(v);
  std::atomic<int> consumed{0};
  std::vector<std::atomic<int>> seen(kTotal);
  std::vector<std::vector<int>> order(kConsumers);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::vector<std::thread> ts;
  for (int p = 0; p < kProducers; ++p)
    ts.emplace_back([&, p] {
      Item* base = &storage[static_cast<std::size_t>(p * kPerProducer)];
      for (int i = 0; i < kPerProducer;) {
        if (p % 2 == 0) {
          q.push_back(base + i++);
          continue;
        }
        Item* batch[5];
        const int n = std::min(1 + i % 5, kPerProducer - i);
        for (int k = 0; k < n; ++k) batch[k] = base + i + k;
        q.push_back_batch(batch, static_cast<std::size_t>(n));
        i += n;
      }
    });
  for (int c = 0; c < kConsumers; ++c)
    ts.emplace_back([&, c] {
      while (consumed.load() < kTotal) {
        if (Item* it = q.try_pop_front()) {
          seen[static_cast<std::size_t>(it->value)].fetch_add(1);
          order[static_cast<std::size_t>(c)].push_back(it->value);
          consumed.fetch_add(1);
        } else {
          if (std::chrono::steady_clock::now() > deadline) break;
          std::this_thread::yield();
        }
      }
    });
  for (auto& t : ts) t.join();
  ASSERT_EQ(consumed.load(), kTotal);
  for (int v = 0; v < kTotal; ++v)
    ASSERT_EQ(seen[static_cast<std::size_t>(v)].load(), 1) << "item " << v;
  for (int c = 0; c < kConsumers; ++c) {
    std::vector<int> last(kProducers, -1);
    for (int v : order[static_cast<std::size_t>(c)]) {
      int& l = last[static_cast<std::size_t>(v / kPerProducer)];
      ASSERT_LT(l, v) << "consumer " << c << " saw " << v << " after " << l;
      l = v;
    }
  }
  EXPECT_TRUE(q.empty_estimate());
}

// A push is an exchange on the tail, then a store of the link to the new
// item. Between the two, consumers must report nothing and lose nothing:
// the item behind the unlinked one stays too, since its successor is due.
TEST(MpmcFifo, PushBetweenExchangeAndLinkIsNotLost) {
  IntrusiveMpmcFifo<Item> q;
  Item a(1), b(2);
  // Into an empty list.
  Item** prev = MpmcFifoTestPeer::publish(q, &a);
  EXPECT_EQ(q.try_pop_front(), nullptr);
  EXPECT_EQ(q.pop_front(), nullptr);
  MpmcFifoTestPeer::link(prev, &a);
  EXPECT_EQ(q.try_pop_front(), &a);
  EXPECT_TRUE(q.empty_estimate());
  // Behind a linked item.
  q.push_back(&a);
  prev = MpmcFifoTestPeer::publish(q, &b);
  EXPECT_EQ(q.try_pop_front(), nullptr);
  EXPECT_EQ(q.pop_front(), nullptr);
  EXPECT_FALSE(q.empty_estimate());
  MpmcFifoTestPeer::link(prev, &b);
  EXPECT_EQ(q.try_pop_front(), &a);
  EXPECT_EQ(q.try_pop_front(), &b);
  EXPECT_EQ(q.try_pop_front(), nullptr);
  EXPECT_TRUE(q.empty_estimate());
}

// The runtime's idle protocol over a push caught mid-way: a consumer that
// found the list empty goes to sleep on the gate; the producer finishes the
// link and notifies, as Runtime::enqueue_ready does. The consumer must wake
// on that notify (not on its 10 s timeout) and take both items in order; it
// gives up after one sleep that long.
TEST(MpmcFifo, ConsumerDoesNotSleepThroughAnInFlightPush) {
  IntrusiveMpmcFifo<Item> q;
  IdleGate gate;
  Item a(1), b(2);
  q.push_back(&a);
  Item** prev = MpmcFifoTestPeer::publish(q, &b);
  std::atomic<bool> found_empty{false};
  std::vector<int> got;
  std::chrono::steady_clock::duration slept{};
  std::thread consumer([&] {
    while (got.size() < 2 && slept < std::chrono::seconds(5)) {
      const std::uint64_t seen = gate.prepare_wait();
      if (Item* it = q.try_pop_front()) {
        got.push_back(it->value);
        continue;
      }
      found_empty.store(true);
      const auto t0 = std::chrono::steady_clock::now();
      gate.wait(seen, std::chrono::seconds(10));
      slept = std::max(slept, std::chrono::steady_clock::now() - t0);
    }
  });
  while (!found_empty.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  MpmcFifoTestPeer::link(prev, &b);
  gate.notify_one();
  consumer.join();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_LT(slept, std::chrono::seconds(5));
}

// --- ReadyLists (the Sec. III policy) ---------------------------------------------

class ReadyListsPolicy : public ::testing::Test {
 protected:
  Xoshiro256 rng{123};
  AcquireSource src = AcquireSource::None;
  unsigned attempts = 0;
};

TEST_F(ReadyListsPolicy, HighPriorityBeatsEverything) {
  ReadyLists<Item> rl(2, SchedulerMode::Distributed, StealOrder::CreationOrder);
  Item own(1), mainq(2), high(3);
  rl.push_local(0, &own);
  rl.push_main(&mainq);
  rl.push_high(&high);
  EXPECT_EQ(rl.acquire(0, rng, src, attempts)->value, 3);
  EXPECT_EQ(src, AcquireSource::HighPriority);
}

TEST_F(ReadyListsPolicy, OwnListBeatsMainList) {
  ReadyLists<Item> rl(2, SchedulerMode::Distributed, StealOrder::CreationOrder);
  Item own(1), mainq(2);
  rl.push_local(0, &own);
  rl.push_main(&mainq);
  EXPECT_EQ(rl.acquire(0, rng, src, attempts)->value, 1);
  EXPECT_EQ(src, AcquireSource::OwnList);
}

TEST_F(ReadyListsPolicy, MainListBeatsStealing) {
  ReadyLists<Item> rl(2, SchedulerMode::Distributed, StealOrder::CreationOrder);
  Item other(1), mainq(2);
  rl.push_local(1, &other);
  rl.push_main(&mainq);
  EXPECT_EQ(rl.acquire(0, rng, src, attempts)->value, 2);
  EXPECT_EQ(src, AcquireSource::MainList);
}

TEST_F(ReadyListsPolicy, StealsFromNextThreadInCreationOrder) {
  ReadyLists<Item> rl(4, SchedulerMode::Distributed, StealOrder::CreationOrder);
  Item v2(2), v3(3);
  rl.push_local(2, &v2);
  rl.push_local(3, &v3);
  // Worker 1 must visit 2 before 3 ("in creation order starting from the
  // next one").
  EXPECT_EQ(rl.acquire(1, rng, src, attempts)->value, 2);
  EXPECT_EQ(src, AcquireSource::Steal);
  EXPECT_EQ(rl.acquire(1, rng, src, attempts)->value, 3);
}

TEST_F(ReadyListsPolicy, OwnListIsLifoStealIsFifo) {
  ReadyLists<Item> rl(2, SchedulerMode::Distributed, StealOrder::CreationOrder);
  Item a(1), b(2), c(3);
  rl.push_local(0, &a);
  rl.push_local(0, &b);
  rl.push_local(0, &c);
  EXPECT_EQ(rl.acquire(0, rng, src, attempts)->value, 3);  // LIFO own
  EXPECT_EQ(rl.acquire(1, rng, src, attempts)->value, 1);  // FIFO steal
}

TEST_F(ReadyListsPolicy, CentralizedModeUsesOneQueue) {
  ReadyLists<Item> rl(4, SchedulerMode::Centralized, StealOrder::CreationOrder);
  Item a(1), b(2);
  rl.push_local(2, &a);  // redirected to the main list
  rl.push_main(&b);
  EXPECT_EQ(rl.acquire(0, rng, src, attempts)->value, 1);  // FIFO order
  EXPECT_EQ(src, AcquireSource::MainList);
  EXPECT_EQ(rl.acquire(3, rng, src, attempts)->value, 2);
}

// The Runtime wakes a sleeper for every task in a shared list, and asks
// for a backlog only on a worker's own list; Centralized has no own lists.
TEST(ReadyListsPlacement, CentralizedReportsReleasedTasksAsMain) {
  struct Node {
    Node* queue_next = nullptr;
    bool high_priority = false;
    std::uint32_t pref_tid = ~0u;
  };
  ReadyLists<Node> dist(2, SchedulerMode::Distributed,
                        StealOrder::CreationOrder, /*nested_tasks=*/true);
  ReadyLists<Node> cent(2, SchedulerMode::Centralized,
                        StealOrder::CreationOrder, /*nested_tasks=*/true);
  Node a, b, c, d;
  EXPECT_EQ(dist.enqueue_released(&a, 1), Placed::Local);
  EXPECT_EQ(cent.enqueue_released(&b, 1), Placed::Main);
  // A nested child ready at creation is placed as a release would be.
  EXPECT_EQ(dist.enqueue_creation(&c, 1, /*in_task=*/true), Placed::Local);
  EXPECT_EQ(cent.enqueue_creation(&d, 1, /*in_task=*/true), Placed::Main);
  EXPECT_EQ(c.pref_tid, 1u);
  EXPECT_EQ(d.pref_tid, 1u);
}

TEST_F(ReadyListsPolicy, EmptyReturnsNullWithAttemptCount) {
  ReadyLists<Item> rl(4, SchedulerMode::Distributed, StealOrder::CreationOrder);
  EXPECT_EQ(rl.acquire(0, rng, src, attempts), nullptr);
  EXPECT_EQ(src, AcquireSource::None);
  EXPECT_EQ(attempts, 3u);  // probed the other three workers
}

TEST_F(ReadyListsPolicy, RandomStealStillFindsWork) {
  ReadyLists<Item> rl(4, SchedulerMode::Distributed, StealOrder::Random);
  Item a(7);
  rl.push_local(3, &a);
  Item* got = nullptr;
  for (int tries = 0; tries < 64 && !got; ++tries)
    got = rl.acquire(0, rng, src, attempts);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->value, 7);
}

// --- IdleGate -----------------------------------------------------------------------

TEST(IdleGate, NotifyWakesSleeper) {
  IdleGate gate;
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    std::uint64_t seen = gate.prepare_wait();
    gate.wait(seen, std::chrono::milliseconds(500));
    woke.store(true);
  });
  // Give the sleeper a moment to block, then notify.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.notify_all();
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

TEST(IdleGate, StaleEpochReturnsImmediately) {
  IdleGate gate;
  std::uint64_t seen = gate.prepare_wait();
  gate.notify_all();  // epoch moves past `seen`
  auto t0 = std::chrono::steady_clock::now();
  gate.wait(seen, std::chrono::milliseconds(500));
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
}

}  // namespace
}  // namespace smpss
