// Single-threaded contract tests for online resharding: resize up /
// down / same / empty / rounded counts, the migration retire ledger,
// forwarding-state cleanup (retired-table reclamation), geometry
// invariants, stats counters, the auto-grow trigger, and a mini-oracle
// for every op class after a chain of resizes.
//
// Concurrent behaviour (forwarding, spin-on-migrated, TSan/ASan races)
// is covered by test_reshard_stress.cpp and the resize-aware oracle in
// test_kv_oracle.cpp; this file pins the sequential semantics those
// suites build on.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "kv/kv_store.hpp"
#include "kv_balance.hpp"
#include "tracker_types.hpp"

namespace {

using namespace wfe;

template <class TR>
using Store = kv::KvStore<std::uint64_t, std::uint64_t, TR>;

template <class TR>
kv::KvConfig unit_cfg(std::size_t shards = 4, std::size_t buckets = 32) {
  kv::KvConfig c;
  c.shards = shards;
  c.buckets_per_shard = buckets;
  c.tracker.max_threads = 2;
  c.tracker.max_hes = Store<TR>::kSlotsNeeded;
  c.tracker.era_freq = 8;
  c.tracker.cleanup_freq = 4;
  c.tracker.retire_batch = 4;
  return c;
}

constexpr unsigned kTid = 0;

template <class TR>
void populate(Store<TR>& s, std::uint64_t n, std::uint64_t stride = 1) {
  for (std::uint64_t k = 1; k <= n; ++k)
    ASSERT_TRUE(s.insert(k * stride, k * 10, kTid));
}

template <class TR>
void expect_content(Store<TR>& s, std::uint64_t n, std::uint64_t stride = 1) {
  ASSERT_EQ(s.size_unsafe(), n);
  for (std::uint64_t k = 1; k <= n; ++k) {
    const auto v = s.get(k * stride, kTid);
    ASSERT_TRUE(v.has_value()) << "lost key " << k * stride;
    ASSERT_EQ(*v, k * 10);
  }
}

template <class TR>
class ReshardUnitTest : public ::testing::Test {};

TYPED_TEST_SUITE(ReshardUnitTest, test::AllTrackers);

TYPED_TEST(ReshardUnitTest, GrowPreservesContent) {
  Store<TypeParam> s(unit_cfg<TypeParam>(4));
  populate(s, 500);
  ASSERT_TRUE(s.resize(16, kTid));
  EXPECT_EQ(s.shard_count(), 16u);
  EXPECT_EQ(s.table_epoch(), 2u);
  expect_content(s, 500);
}

TYPED_TEST(ReshardUnitTest, ShrinkPreservesContent) {
  Store<TypeParam> s(unit_cfg<TypeParam>(8));
  populate(s, 500);
  ASSERT_TRUE(s.resize(2, kTid));
  EXPECT_EQ(s.shard_count(), 2u);
  expect_content(s, 500);
}

TYPED_TEST(ReshardUnitTest, SameSizeIsNoOp) {
  Store<TypeParam> s(unit_cfg<TypeParam>(4));
  populate(s, 100);
  EXPECT_FALSE(s.resize(4, kTid));
  EXPECT_EQ(s.table_epoch(), 1u);
  EXPECT_EQ(s.stats().resize_epochs, 0u);
  expect_content(s, 100);
}

TYPED_TEST(ReshardUnitTest, RequestedCountRoundsUpToPowerOfTwo) {
  Store<TypeParam> s(unit_cfg<TypeParam>(4));
  ASSERT_TRUE(s.resize(5, kTid));
  EXPECT_EQ(s.shard_count(), 8u);
  // Rounding makes 7 -> 8 a same-size no-op now.
  EXPECT_FALSE(s.resize(7, kTid));
}

TYPED_TEST(ReshardUnitTest, EmptyStoreResize) {
  Store<TypeParam> s(unit_cfg<TypeParam>(4));
  ASSERT_TRUE(s.resize(16, kTid));
  EXPECT_EQ(s.shard_count(), 16u);
  EXPECT_EQ(s.size_unsafe(), 0u);
  const kv::KvStats st = s.stats();
  ASSERT_EQ(st.resizes.size(), 1u);
  EXPECT_EQ(st.resizes[0].migrated_keys, 0u);
  EXPECT_EQ(st.resizes[0].nodes_retired, 0u);
  EXPECT_EQ(st.resizes[0].cells_retired, 0u);
  // Still fully operational.
  EXPECT_TRUE(s.insert(42, 7, kTid));
  EXPECT_EQ(s.get(42, kTid), std::make_optional<std::uint64_t>(7));
}

TYPED_TEST(ReshardUnitTest, RetireLedgerCloses) {
  Store<TypeParam> s(unit_cfg<TypeParam>(4));
  populate(s, 400);
  // Remove a slab so migrated_keys != allocated history.
  for (std::uint64_t k = 1; k <= 100; ++k)
    ASSERT_TRUE(s.remove(k, kTid).has_value());
  ASSERT_TRUE(s.resize(16, kTid));
  const kv::KvStats st = s.stats();
  ASSERT_EQ(st.resizes.size(), 1u);
  const kv::ResizeRecord& r = st.resizes[0];
  EXPECT_EQ(r.from_shards, 4u);
  EXPECT_EQ(r.to_shards, 16u);
  // 300 live keys crossed; every migrated key retired exactly one
  // source node and one source cell (sequential removes fully unlink,
  // so no dead nodes linger in the frozen lists).
  EXPECT_EQ(r.migrated_keys, 300u);
  EXPECT_EQ(r.cells_retired, r.migrated_keys);
  EXPECT_EQ(r.nodes_retired, r.migrated_keys);
  EXPECT_EQ(st.migrated_keys, 300u);
  EXPECT_EQ(st.resize_epochs, 1u);
  // Destination-side mirror: every copy landed via migrate_in.
  EXPECT_EQ(s.stats().total().migrated_in, 300u);
  // No concurrency in this test: nothing ever forwarded.
  EXPECT_EQ(st.forwarded_ops, 0u);
}

TYPED_TEST(ReshardUnitTest, RetiredTablesReclaimedAfterDrain) {
  Store<TypeParam> s(unit_cfg<TypeParam>(4));
  populate(s, 200);
  ASSERT_TRUE(s.resize(8, kTid));
  // No announcement outlives an op in this single-threaded test, so the
  // end-of-resize scan frees the source table (and with it every
  // per-bucket freeze/migrated flag) immediately.
  EXPECT_EQ(s.live_table_count(), 1u);
  ASSERT_TRUE(s.resize(2, kTid));
  EXPECT_EQ(s.live_table_count(), 1u);
  expect_content(s, 200);
}

TYPED_TEST(ReshardUnitTest, ResizeChainAccumulatesLedger) {
  Store<TypeParam> s(unit_cfg<TypeParam>(4));
  populate(s, 250);
  ASSERT_TRUE(s.resize(8, kTid));
  ASSERT_TRUE(s.resize(2, kTid));
  ASSERT_TRUE(s.resize(16, kTid));
  const kv::KvStats st = s.stats();
  EXPECT_EQ(st.table_epoch, 4u);
  EXPECT_EQ(st.resize_epochs, 3u);
  ASSERT_EQ(st.resizes.size(), 3u);
  for (const kv::ResizeRecord& r : st.resizes) {
    EXPECT_EQ(r.migrated_keys, 250u);
    EXPECT_EQ(r.cells_retired, 250u);
    EXPECT_EQ(r.nodes_retired, 250u);
  }
  EXPECT_EQ(st.migrated_keys, 750u);
  expect_content(s, 250);
}

TYPED_TEST(ReshardUnitTest, GeometryInvariants) {
  Store<TypeParam> s(unit_cfg<TypeParam>(4));
  populate(s, 300, /*stride=*/7);
  for (const std::size_t n : {16u, 2u, 8u}) {
    ASSERT_TRUE(s.resize(n, kTid));
    const std::size_t count = s.shard_count();
    EXPECT_EQ(count, n);
    EXPECT_EQ(count & (count - 1), 0u) << "shard count must be a power of two";
    std::size_t per_shard_total = 0;
    for (std::size_t i = 0; i < count; ++i)
      per_shard_total += s.shard_at(i).size_unsafe();
    EXPECT_EQ(per_shard_total, 300u);
    for (std::uint64_t k = 1; k <= 300; ++k) {
      const std::size_t idx = s.shard_index(k * 7);
      ASSERT_LT(idx, count);
      // The routed shard really holds the key.
      bool found = false;
      s.shard_at(idx).for_each_unsafe([&](std::uint64_t key, std::uint64_t) {
        if (key == k * 7) found = true;
      });
      ASSERT_TRUE(found) << "key " << k * 7 << " not in its routed shard";
    }
  }
}

TYPED_TEST(ReshardUnitTest, BlockConservationAfterResize) {
  Store<TypeParam> s(unit_cfg<TypeParam>(4));
  populate(s, 300);
  ASSERT_TRUE(s.resize(16, kTid));
  // Churn the post-resize table a little, then flush buffers.
  for (std::uint64_t k = 1; k <= 100; ++k) s.put(k, k, kTid);
  for (std::uint64_t k = 1; k <= 50; ++k) s.remove(k, kTid);
  s.flush_retired(kTid);
  // Domain-local conservation on the CURRENT table: every allocation is
  // live (node + cell per key), buffered, queued, or freed.
  test::expect_block_balance(s.stats().total(), s.size_unsafe(),
                             "post-resize balance");
}

TYPED_TEST(ReshardUnitTest, AllOpClassesAfterResizeMatchReference) {
  Store<TypeParam> s(unit_cfg<TypeParam>(8));
  std::map<std::uint64_t, std::uint64_t> ref;
  for (std::uint64_t k = 1; k <= 200; ++k) {
    s.insert(k, k, kTid);
    ref.emplace(k, k);
  }
  ASSERT_TRUE(s.resize(2, kTid));
  // One representative of every op class against the reference.
  EXPECT_EQ(s.put(50, 500, kTid), false);
  ref[50] = 500;
  EXPECT_EQ(s.put(1000, 1, kTid), true);
  ref[1000] = 1;
  EXPECT_TRUE(s.update(70, 700, kTid));
  ref[70] = 700;
  EXPECT_FALSE(s.update(2000, 1, kTid));
  EXPECT_EQ(s.remove(80, kTid), std::make_optional<std::uint64_t>(80));
  ref.erase(80);
  EXPECT_FALSE(s.remove(80, kTid).has_value());
  EXPECT_FALSE(s.insert(90, 1, kTid));
  std::vector<std::uint64_t> mkeys{10, 80, 3000, 50};
  const auto got = s.multi_get(mkeys, kTid);
  for (std::size_t i = 0; i < mkeys.size(); ++i) {
    const auto it = ref.find(mkeys[i]);
    if (it == ref.end()) {
      EXPECT_FALSE(got[i].has_value()) << "key " << mkeys[i];
    } else {
      EXPECT_EQ(got[i], std::make_optional(it->second));
    }
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> mputs{
      {10, 100}, {4000, 4}, {4001, 41}};
  EXPECT_EQ(s.multi_put(mputs, kTid), 2u);
  ref[10] = 100;
  ref[4000] = 4;
  ref[4001] = 41;
  std::map<std::uint64_t, std::uint64_t> now;
  s.for_each_unsafe([&](std::uint64_t k, std::uint64_t v) {
    ASSERT_TRUE(now.emplace(k, v).second) << "duplicate key " << k;
  });
  EXPECT_EQ(now, ref);
}

// Deterministic pin of the forwarding mechanism the stress suite can
// only exercise probabilistically: every freeze-aware op on a frozen
// bucket reports "incomplete" with NO state change, and keys in other
// buckets are untouched.  Drives the Shard migration primitives
// directly (what KvStore::resize runs per bucket).
TYPED_TEST(ReshardUnitTest, FrozenBucketForwards) {
  using ShardT = typename Store<TypeParam>::ShardT;
  kv::KvConfig c = unit_cfg<TypeParam>();
  ShardT shard(c.tracker, /*buckets=*/16);
  for (std::uint64_t k = 1; k <= 200; ++k) shard.insert(k, k * 10, kTid);
  const std::uint64_t key = 7;
  const std::size_t b = shard.bucket_index(key);

  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
  std::vector<bool> live;
  shard.freeze_collect_bucket(b, kTid, pairs, live);
  ASSERT_FALSE(pairs.empty());
  for (const auto& [k, v] : pairs) EXPECT_EQ(v, k * 10);

  // Every freeze-aware entry on a frozen-bucket key reports it
  // incomplete (try_*) or deferred (batch halves), with no state change.
  const kv::ShardStats before = shard.stats();
  std::optional<std::uint64_t> out;
  bool flag = false;
  EXPECT_FALSE(shard.try_get(key, kTid, out));
  EXPECT_FALSE(shard.try_put(key, 1, kTid, flag));
  std::uint64_t absent = 0;  // a key NOT in the shard that routes to b
  for (std::uint64_t k = 1000; absent == 0; ++k)
    if (shard.bucket_index(k) == b) absent = k;
  EXPECT_FALSE(shard.try_insert(absent, 1, kTid, flag));
  EXPECT_FALSE(shard.try_update(key, 1, kTid, flag));
  EXPECT_FALSE(shard.try_remove(key, kTid, out));
  bool swapped = false;
  EXPECT_FALSE(shard.try_cas(key, key * 10, 1, kTid, swapped));
  EXPECT_FALSE(swapped);
  const std::vector<std::uint32_t> only0{0};
  std::vector<std::uint32_t> deferred, inserted;
  const std::uint32_t idx0 = 0;
  shard.multi_put(
      std::vector<std::pair<std::uint64_t, std::uint64_t>>{{key, 1}}.data(),
      &idx0, 1, kTid, deferred, inserted);
  EXPECT_TRUE(inserted.empty());
  EXPECT_EQ(deferred, only0);
  // Batch halves leave a deferred position's out slot untouched.
  const std::optional<std::uint64_t> kUntouched = 424242;
  std::optional<std::uint64_t> mout = kUntouched;
  deferred.clear();
  shard.multi_get(&key, &idx0, 1, &mout, kTid, deferred);
  EXPECT_EQ(deferred, only0);
  EXPECT_EQ(mout, kUntouched);
  deferred.clear();
  EXPECT_EQ(shard.multi_remove(&key, &idx0, 1, &mout, kTid, deferred), 0u);
  EXPECT_EQ(deferred, only0);
  EXPECT_EQ(mout, kUntouched);
  // A transaction slice with a remove of a present key and a put of an
  // absent one: both deferred, no intent pair, nothing reported.
  const txn::TxnOp<std::uint64_t, std::uint64_t> tops[] = {
      {key, 0, /*is_remove=*/true}, {absent, 1, /*is_remove=*/false}};
  const std::uint32_t tidx[] = {0, 1};
  deferred.clear();
  const auto slice =
      shard.txn_apply(tops, tidx, 2, /*txn_id=*/1, kTid, deferred, inserted);
  EXPECT_EQ(slice.pairs, 0u);
  EXPECT_EQ(slice.removed, 0u);
  EXPECT_EQ(slice.last_lsn, 0u);
  EXPECT_EQ(deferred, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_TRUE(inserted.empty());
  // No state change: the frozen bucket still holds exactly what was
  // collected, no op counter ticked, and every block an aborted
  // install allocated went straight back.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> again;
  std::vector<bool> live_again;
  shard.collect_bucket(b, again, live_again);
  EXPECT_EQ(again, pairs);
  EXPECT_EQ(live_again, live);
  const kv::ShardStats after = shard.stats();
  EXPECT_EQ(after.ops(), before.ops());
  EXPECT_EQ(after.cas_ops, before.cas_ops);
  EXPECT_EQ(after.txn_ops, before.txn_ops);
  EXPECT_EQ(after.batched_ops, before.batched_ops);
  EXPECT_EQ(after.value_cell_retires, before.value_cell_retires);
  EXPECT_EQ(after.retired + after.pending_retired,
            before.retired + before.pending_retired);
  EXPECT_EQ(after.allocated - after.freed, before.allocated - before.freed);

  // A key in a different, unfrozen bucket completes normally.
  std::uint64_t other = 0;
  for (std::uint64_t k = 1; k <= 200; ++k)
    if (shard.bucket_index(k) != b) { other = k; break; }
  ASSERT_NE(other, 0u);
  ASSERT_TRUE(shard.try_get(other, kTid, out));
  EXPECT_EQ(out, std::make_optional(other * 10));

  // Drain closes the bucket's ledger: one node per linked node, one
  // cell per live pair, all retired in this shard's domain.
  const auto [nodes, cells] = shard.drain_bucket(b, kTid, live);
  EXPECT_EQ(cells, pairs.size());
  EXPECT_GE(nodes, cells);
  // The frozen state is sticky: a drained source bucket still reports
  // "forward" (its content now lives wherever the migration copied it).
  EXPECT_FALSE(shard.try_get(key, kTid, out));
  shard.flush_retired(kTid);
}

TYPED_TEST(ReshardUnitTest, AutoGrowTriggersOnLoadFactor) {
  kv::KvConfig c = unit_cfg<TypeParam>(/*shards=*/1, /*buckets=*/16);
  c.auto_grow_load_factor = 2.0;  // grow past 32 keys in the 1x16 table
  c.auto_grow_check_interval = 4;
  Store<TypeParam> s(c);
  populate(s, 400);
  EXPECT_GT(s.shard_count(), 1u);
  EXPECT_GE(s.stats().resize_epochs, 1u);
  expect_content(s, 400);
}

TYPED_TEST(ReshardUnitTest, AutoGrowRespectsMaxShards) {
  kv::KvConfig c = unit_cfg<TypeParam>(/*shards=*/1, /*buckets=*/4);
  c.auto_grow_load_factor = 0.5;
  c.auto_grow_check_interval = 2;
  c.auto_grow_max_shards = 4;
  Store<TypeParam> s(c);
  populate(s, 300);
  EXPECT_LE(s.shard_count(), 4u);
  expect_content(s, 300);
}

}  // namespace
