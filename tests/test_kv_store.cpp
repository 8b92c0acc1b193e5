// Sharded kv store: contract, shard routing/distribution, stats
// accounting, batched retirement, the concurrent sweep across every
// reclamation scheme at 8 threads (acceptance gate for the kv engine),
// and ordered-index membership under racing writers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "kv/kv_store.hpp"
#include "kv_balance.hpp"
#include "tracker_types.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;

template <class TR>
using Store = kv::KvStore<std::uint64_t, std::uint64_t, TR>;

template <class TR>
kv::KvConfig small_cfg(unsigned threads = 4, std::size_t shards = 4) {
  kv::KvConfig c;
  c.shards = shards;
  c.buckets_per_shard = 64;
  c.tracker.max_threads = threads;
  c.tracker.max_hes = Store<TR>::kSlotsNeeded;
  c.tracker.era_freq = 8;
  c.tracker.cleanup_freq = 4;
  c.tracker.retire_batch = 4;
  return c;
}

template <class TR>
class KvStoreTest : public ::testing::Test {};

TYPED_TEST_SUITE(KvStoreTest, test::AllTrackers);

TYPED_TEST(KvStoreTest, BasicContract) {
  Store<TypeParam> store(small_cfg<TypeParam>());
  EXPECT_TRUE(store.insert(1, 10, 0));
  EXPECT_FALSE(store.insert(1, 11, 0));
  EXPECT_EQ(*store.get(1, 0), 10u);

  EXPECT_TRUE(store.put(2, 20, 0));    // absent -> inserted
  EXPECT_FALSE(store.put(2, 21, 0));   // present -> replaced
  EXPECT_EQ(*store.get(2, 0), 21u);

  EXPECT_TRUE(store.update(2, 22, 0));   // present -> replaced
  EXPECT_EQ(*store.get(2, 0), 22u);
  EXPECT_FALSE(store.update(99, 1, 0));  // absent -> no write
  EXPECT_FALSE(store.contains(99, 0));

  EXPECT_EQ(*store.remove(1, 0), 10u);
  EXPECT_FALSE(store.remove(1, 0).has_value());
  EXPECT_EQ(store.size_unsafe(), 1u);
}

TYPED_TEST(KvStoreTest, ShardCountRoundsToPowerOfTwo) {
  auto cfg = small_cfg<TypeParam>();
  cfg.shards = 5;
  Store<TypeParam> store(cfg);
  EXPECT_EQ(store.shard_count(), 8u);
  cfg.shards = 1;
  Store<TypeParam> one(cfg);
  EXPECT_EQ(one.shard_count(), 1u);
}

TYPED_TEST(KvStoreTest, ShardDistributionAndRouting) {
  Store<TypeParam> store(small_cfg<TypeParam>(4, 8));
  constexpr std::uint64_t kKeys = 4096;
  for (std::uint64_t k = 1; k <= kKeys; ++k) ASSERT_TRUE(store.insert(k, k, 0));

  // Routing is stable and data lands where shard_index says.
  std::vector<std::size_t> expected(store.shard_count(), 0);
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    const std::size_t idx = store.shard_index(k);
    ASSERT_EQ(idx, store.shard_index(k));
    ASSERT_LT(idx, store.shard_count());
    ++expected[idx];
  }
  std::size_t total = 0;
  for (std::size_t i = 0; i < store.shard_count(); ++i) {
    EXPECT_EQ(store.shard_at(i).size_unsafe(), expected[i]) << "shard " << i;
    total += expected[i];
    // splitmix64 over 4096 sequential keys: every shard far from empty
    // and far from hogging (expected 512 per shard; allow a wide band).
    EXPECT_GT(expected[i], kKeys / 32) << "shard " << i;
    EXPECT_LT(expected[i], kKeys / 4) << "shard " << i;
  }
  EXPECT_EQ(total, kKeys);
  EXPECT_EQ(store.size_unsafe(), kKeys);
}

// The same keyspace must produce the same map whatever the shard/bucket
// geometry (the fixed-geometry analogue of a rehash invariance check).
TYPED_TEST(KvStoreTest, GeometryInvariance) {
  std::map<std::uint64_t, std::uint64_t> model;
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 2000; ++i)
    model[rng.next_bounded(500) + 1] = rng.next();

  for (std::size_t shards : {1u, 2u, 16u}) {
    auto cfg = small_cfg<TypeParam>(1, shards);
    cfg.buckets_per_shard = shards == 1 ? 1 : 32;  // vary buckets too
    Store<TypeParam> store(cfg);
    for (const auto& [k, v] : model) ASSERT_TRUE(store.insert(k, v, 0));
    std::map<std::uint64_t, std::uint64_t> out;
    store.for_each_unsafe(
        [&](std::uint64_t k, std::uint64_t v) { out.emplace(k, v); });
    EXPECT_EQ(out, model) << shards << " shards";
  }
}

TYPED_TEST(KvStoreTest, StatsCountOpsPerShard) {
  Store<TypeParam> store(small_cfg<TypeParam>());
  for (std::uint64_t k = 1; k <= 100; ++k) store.put(k, k, 0);
  for (std::uint64_t k = 1; k <= 100; ++k) store.get(k, 0);
  for (std::uint64_t k = 1; k <= 50; ++k) store.update(k, 0, 0);
  for (std::uint64_t k = 1; k <= 100; ++k) store.remove(k, 0);

  const kv::ShardStats tot = store.stats().total();
  EXPECT_EQ(tot.gets, 100u);
  EXPECT_EQ(tot.puts, 100u);
  EXPECT_EQ(tot.updates, 50u);
  EXPECT_EQ(tot.removes, 100u);
  EXPECT_EQ(tot.ops(), 350u);

  // Per-shard decomposition matches the routing.
  const kv::KvStats st = store.stats();
  std::uint64_t gets = 0;
  for (const auto& s : st.shards) gets += s.gets;
  EXPECT_EQ(gets, 100u);
}

TYPED_TEST(KvStoreTest, BatchedRetireFlushesInBursts) {
  auto cfg = small_cfg<TypeParam>();
  cfg.shards = 1;
  cfg.tracker.retire_batch = 16;
  Store<TypeParam> store(cfg);
  // 10 replacements retire 10 old nodes: all buffered, none handed to
  // the domain tracker yet.
  for (std::uint64_t k = 1; k <= 10; ++k) ASSERT_TRUE(store.insert(k, k, 0));
  for (std::uint64_t k = 1; k <= 10; ++k) ASSERT_FALSE(store.put(k, k + 1, 0));
  kv::ShardStats s = store.stats().total();
  EXPECT_EQ(s.pending_retired, 10u);
  EXPECT_EQ(s.retired, 0u);  // domain tracker hasn't seen them

  store.flush_retired(0);
  s = store.stats().total();
  EXPECT_EQ(s.pending_retired, 0u);
  EXPECT_EQ(s.retired, 10u);
}

// Acceptance sweep: concurrent get/put/remove/update from 8 threads
// under every scheme, then full drain and a block birth/retire balance
// check against the counting allocator (TrackerBase counters).
TYPED_TEST(KvStoreTest, ConcurrentSweep8Threads) {
  constexpr unsigned kThreads = 8;
  constexpr int kOpsPerThread = 8000;
  auto cfg = small_cfg<TypeParam>(kThreads, 4);
  {
    Store<TypeParam> store(cfg);
    // Updates run on their own preloaded key range: update() retries
    // remove+insert internally, so a concurrent insert() on the same key
    // can be absorbed without the outside observer seeing a balanced
    // pair — disjoint ranges keep the balance ledger exact while still
    // racing update against update.
    constexpr std::uint64_t kUpdBase = 1u << 20, kUpdKeys = 128;
    for (std::uint64_t k = 0; k < kUpdKeys; ++k)
      ASSERT_TRUE(store.insert(kUpdBase + k, k, 0));
    std::atomic<long> balance{0};
    std::vector<std::thread> threads;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      threads.emplace_back([&, tid] {
        util::Xoshiro256 rng(tid + 97);
        for (int i = 0; i < kOpsPerThread; ++i) {
          const std::uint64_t k = rng.next_bounded(1024) + 1;
          switch (rng.next_bounded(4)) {
            case 0:
              if (store.insert(k, k, tid)) balance.fetch_add(1);
              break;
            case 1:
              if (store.remove(k, tid)) balance.fetch_sub(1);
              break;
            case 2:
              store.update(kUpdBase + rng.next_bounded(kUpdKeys), i, tid);
              break;
            case 3:
              store.get(k, tid);
              break;
          }
        }
        store.flush_retired(tid);
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(static_cast<std::size_t>(balance.load()) + kUpdKeys,
              store.size_unsafe());

    // Birth/retire balance while the store is alive (see kv_balance.hpp
    // for the ledger and how conditional-install aborts are absorbed).
    test::expect_block_balance(store.stats().total(), store.size_unsafe(),
                               "store total");
    // And per shard — domains are independent, so the identity must
    // hold shard-locally too.
    const kv::KvStats st = store.stats();
    for (std::size_t i = 0; i < st.shards.size(); ++i)
      test::expect_block_balance(st.shards[i], store.shard_at(i).size_unsafe(),
                                 "per-shard balance");
  }
  // Store destroyed: every shard drained its domain — nothing leaks
  // (verified inside the tracker destructors via drain_all_unsafe; a
  // Leak tracker keeps blocks by design and is exercised for API only).
}

// Ordered-index membership under racing writers.  Only writes that make
// a key present add its index entry (a put that replaces a value in
// place skips the BST insert), and every remover drops the entry before
// its primary erase.  So once the writers are quiescent, no live key may
// be missing from the index: a scan must return exactly the primary's
// contents (stale index entries are skipped by the scan's primary
// lookup), and the index domain's ledger must close on at least one
// 3-block entry (leaf + internal + value cell) per live key.  A later
// race on a key can re-add an entry an earlier race lost, so the check
// runs after each of many short rounds, not once after a long one.
TYPED_TEST(KvStoreTest, OrderedIndexCoversLiveKeysAfterRacingWrites) {
  constexpr unsigned kThreads = 4;
  constexpr int kRounds = 25, kOpsPerRound = 400;
  constexpr std::uint64_t kHotKeys = 64;
  auto cfg = small_cfg<TypeParam>(kThreads, 4);
  cfg.ordered_index = true;
  Store<TypeParam> store(cfg);
  std::size_t live_seen = 0;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::atomic<unsigned> ready{0};
    std::vector<std::thread> threads;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      threads.emplace_back([&, tid] {
        util::Xoshiro256 rng(round * kThreads + tid + 131);
        const auto key = [&] { return rng.next_bounded(kHotKeys) + 1; };
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (int i = 0; i < kOpsPerRound; ++i) {
          const std::uint64_t k = key(), v = rng.next();
          switch (rng.next_bounded(8)) {
            case 0:
            case 1:
              store.put(k, v, tid);
              break;
            case 2:
              store.insert(k, v, tid);
              break;
            case 3:
              store.update(k, v, tid);
              break;
            case 4:
              store.remove(k, tid);
              break;
            case 5: {
              const std::uint64_t base = key();
              std::vector<std::pair<std::uint64_t, std::uint64_t>> batch;
              for (std::uint64_t j = 0; j < 4; ++j)
                batch.emplace_back((base + j) % kHotKeys + 1, v + j);
              store.multi_put(batch, tid);
              break;
            }
            case 6: {
              // Put and remove of the same key in one txn: the buffer
              // keeps each key's last op, so `a` commits as a remove
              // and `b` as a put.
              const std::uint64_t a = k, b = k % kHotKeys + 1;
              txn::Txn<std::uint64_t, std::uint64_t> txn;
              txn.put(a, v);
              txn.remove(a);
              txn.remove(b);
              txn.put(b, v);
              store.txn_commit(txn, tid);
              break;
            }
            case 7:
              store.put_copy(k, v, tid);
              break;
          }
        }
        store.flush_retired(tid);
      });
    }
    for (auto& t : threads) t.join();

    std::vector<std::pair<std::uint64_t, std::uint64_t>> primary, scanned;
    store.for_each_unsafe([&](std::uint64_t k, std::uint64_t v) {
      primary.emplace_back(k, v);
    });
    std::sort(primary.begin(), primary.end());
    live_seen += primary.size();
    store.scan(0, kHotKeys + 1, [&](std::uint64_t k, std::uint64_t v) {
      scanned.emplace_back(k, v);
    }, 0);
    ASSERT_EQ(scanned, primary);

    const kv::ShardStats ix = store.stats().index;
    const std::uint64_t held =
        ix.allocated - ix.freed - ix.pending_retired - ix.unreclaimed;
    ASSERT_EQ(held % 3, 0u) << "held=" << held;
    ASSERT_GE(held / 3, store.size_unsafe()) << "held=" << held;
  }
  EXPECT_GT(live_seen, 0u);
}

// Slow-path observability: forcing WFE's slow path through the shard
// config must surface in the stats snapshot.
TEST(KvStoreWfe, SlowPathEntriesSurfaceInStats) {
  using TR = core::WfeTracker;
  auto cfg = small_cfg<TR>(2, 2);
  cfg.tracker.force_slow_path = true;
  Store<TR> store(cfg);
  for (std::uint64_t k = 1; k <= 200; ++k) store.put(k, k, 0);
  for (std::uint64_t k = 1; k <= 200; ++k) store.get(k, 1);
  EXPECT_GT(store.stats().total().slow_path_entries, 0u);
}

}  // namespace
