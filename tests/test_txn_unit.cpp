// Transaction unit contracts (src/txn/, persist txn records, kv cas /
// incr / txn_commit): the INTENT/COMMIT codec and its recovery fold
// (two-pass id resolution over raw streams), the atomic pair append,
// commit-stream rotation, and the store-level degenerate transactions —
// cas never retires a cell it didn't install, a concurrent incr storm
// sums exactly, and abort paths leave every domain ledger balanced.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness/runner.hpp"
#include "kv/kv_store.hpp"
#include "kv_balance.hpp"
#include "persist/group_commit.hpp"
#include "persist/recovery.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "scratch_dir.hpp"
#include "tracker_types.hpp"
#include "txn/txn.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;
using persist::Record;
using persist::RecordType;

// $TMPDIR-honoring scratch, removed even when a test fails (see
// scratch_dir.hpp; WFE_KEEP_SCRATCH=1 keeps it for upload).
struct TempDir {
  test::ScratchDir sd{"txn"};
  std::string path = sd.path();
};

std::string write_raw(const std::string& dir, const std::string& name,
                      const std::vector<Record>& recs) {
  const std::string path = dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "ab");
  unsigned char buf[persist::kRecordSize];
  for (const Record& r : recs) {
    persist::encode_record(r, buf);
    std::fwrite(buf, 1, sizeof buf, f);
  }
  std::fclose(f);
  return path;
}

/// Folds a plan through replay() into a plain map (the reference shape
/// the kill harness uses too).
std::map<std::uint64_t, std::uint64_t> fold(const persist::RecoveryPlan& plan) {
  std::map<std::uint64_t, std::uint64_t> m;
  persist::replay(
      plan, [&](std::uint64_t k, std::uint64_t v) { m[k] = v; },
      [&](std::uint64_t k) { m.erase(k); });
  return m;
}

// ---- codec: the three txn record types are first-class records ----

TEST(TxnRecord, RoundTripsAllTxnTypes) {
  for (const RecordType t :
       {RecordType::kTxnIntent, RecordType::kTxnData, RecordType::kTxnCommit}) {
    Record in{t, 9, 0x1122334455667788ull, 0x99AABBCCDDEEFF00ull};
    unsigned char buf[persist::kRecordSize];
    persist::encode_record(in, buf);
    Record out{};
    ASSERT_TRUE(persist::decode_record(buf, out));
    EXPECT_EQ(out.type, in.type);
    EXPECT_EQ(out.lsn, in.lsn);
    EXPECT_EQ(out.key, in.key);
    EXPECT_EQ(out.value, in.value);
  }
}

TEST(TxnRecord, TypePastTxnCommitIsStillRejected) {
  Record in{RecordType::kPut, 1, 2, 3};
  unsigned char buf[persist::kRecordSize];
  persist::encode_record(in, buf);
  // One past the (extended) valid range, with a recomputed valid CRC:
  // the range check, not the checksum, must reject it.
  buf[4] = static_cast<unsigned char>(RecordType::kTxnCommit) + 1;
  const std::uint32_t crc = util::crc32c(buf + 4, persist::kRecordSize - 4);
  std::memcpy(buf, &crc, 4);
  Record r{};
  EXPECT_FALSE(persist::decode_record(buf, r));
}

// ---- recovery fold: two-pass id resolution over raw streams ----

// One txn (id 7) spanning two shard streams, commit on stream 0: the
// fold installs every pair.
TEST(TxnRecovery, CommittedTxnInstallsAcrossStreams) {
  TempDir td;
  write_raw(td.path, persist::segment_name(1, 0, 0),
            {{RecordType::kTxnIntent, 1, 7, 0},
             {RecordType::kTxnData, 2, 1, 10},
             {RecordType::kTxnCommit, 3, 7, 3}});
  write_raw(td.path, persist::segment_name(1, 1, 0),
            {{RecordType::kTxnIntent, 1, 7, 0},
             {RecordType::kTxnData, 2, 2, 20},
             {RecordType::kTxnIntent, 3, 7, 0},
             {RecordType::kTxnData, 4, 3, 30}});
  persist::RecoveryPlan plan = persist::plan_recovery(td.path);
  const persist::TxnResolution txns = persist::resolve_txns(plan);
  EXPECT_TRUE(txns.committed(7));
  EXPECT_EQ(txns.max_txn_id, 7u);
  const auto m = fold(plan);
  const std::map<std::uint64_t, std::uint64_t> want{{1, 10}, {2, 20}, {3, 30}};
  EXPECT_EQ(m, want);
}

// Same pairs, commit record lost (torn off the commit stream's tail):
// every intent is dropped, nothing installs.
TEST(TxnRecovery, LostCommitDropsEveryIntent) {
  TempDir td;
  write_raw(td.path, persist::segment_name(1, 0, 0),
            {{RecordType::kTxnIntent, 1, 7, 0},
             {RecordType::kTxnData, 2, 1, 10}});
  write_raw(td.path, persist::segment_name(1, 1, 0),
            {{RecordType::kTxnIntent, 1, 7, 0},
             {RecordType::kTxnData, 2, 2, 20}});
  persist::RecoveryPlan plan = persist::plan_recovery(td.path);
  const persist::TxnResolution txns = persist::resolve_txns(plan);
  EXPECT_FALSE(txns.committed(7));
  EXPECT_EQ(txns.max_txn_id, 7u);  // orphans still advance the id floor
  EXPECT_TRUE(fold(plan).empty());
}

// Commit durable but one pair torn off another stream's tail: the pair
// count in the commit record catches the mismatch and the whole txn is
// dropped — never half-installed.
TEST(TxnRecovery, TornPairTailDropsTheWholeTxn) {
  TempDir td;
  write_raw(td.path, persist::segment_name(1, 0, 0),
            {{RecordType::kTxnIntent, 1, 7, 0},
             {RecordType::kTxnData, 2, 1, 10},
             {RecordType::kTxnCommit, 3, 7, 3}});
  // Stream 1 lost its tail: the second pair's payload never hit disk,
  // leaving a dangling intent (append2 reserves both, the tear is
  // exactly between them).
  write_raw(td.path, persist::segment_name(1, 1, 0),
            {{RecordType::kTxnIntent, 1, 7, 0},
             {RecordType::kTxnData, 2, 2, 20},
             {RecordType::kTxnIntent, 3, 7, 0}});
  persist::RecoveryPlan plan = persist::plan_recovery(td.path);
  const persist::TxnResolution txns = persist::resolve_txns(plan);
  EXPECT_FALSE(txns.committed(7));  // found 2 of 3 declared pairs
  EXPECT_TRUE(fold(plan).empty());
}

// The remove flag: a committed txn's remove pair erases the key a plain
// record installed earlier on the same stream.
TEST(TxnRecovery, RemoveFlagAppliesAsRemove) {
  TempDir td;
  write_raw(td.path, persist::segment_name(1, 0, 0),
            {{RecordType::kPut, 1, 5, 50},
             {RecordType::kPut, 2, 6, 60},
             {RecordType::kTxnIntent, 3, 9, persist::kTxnFlagRemove},
             {RecordType::kTxnData, 4, 5, 0},
             {RecordType::kTxnIntent, 5, 9, 0},
             {RecordType::kTxnData, 6, 6, 61},
             {RecordType::kTxnCommit, 7, 9, 2}});
  persist::RecoveryPlan plan = persist::plan_recovery(td.path);
  EXPECT_TRUE(persist::resolve_txns(plan).committed(9));
  const auto m = fold(plan);
  const std::map<std::uint64_t, std::uint64_t> want{{6, 61}};
  EXPECT_EQ(m, want);
}

// Independent txns resolve independently: one committed, one orphaned,
// interleaved on the same stream.
TEST(TxnRecovery, InterleavedTxnsResolvePerId) {
  TempDir td;
  write_raw(td.path, persist::segment_name(1, 0, 0),
            {{RecordType::kTxnIntent, 1, 3, 0},
             {RecordType::kTxnData, 2, 1, 100},
             {RecordType::kTxnIntent, 3, 4, 0},
             {RecordType::kTxnData, 4, 2, 200},
             {RecordType::kTxnCommit, 5, 4, 1}});
  persist::RecoveryPlan plan = persist::plan_recovery(td.path);
  const persist::TxnResolution txns = persist::resolve_txns(plan);
  EXPECT_FALSE(txns.committed(3));
  EXPECT_TRUE(txns.committed(4));
  EXPECT_EQ(txns.max_txn_id, 4u);
  const auto m = fold(plan);
  const std::map<std::uint64_t, std::uint64_t> want{{2, 200}};
  EXPECT_EQ(m, want);
}

// Pairs at or below a snapshot mark are covered records: skipped at
// replay even when the commit was lost, because the fuzzy dump that
// wrote the mark already holds the whole transaction (the snapshot
// barrier orders every commit entirely before or after the dump).
TEST(TxnRecovery, PairsBelowSnapshotMarkAreCoveredBySnapshot) {
  TempDir td;
  persist::SnapshotImage img;
  img.id = 1;
  img.epoch = 1;
  img.shards = 1;
  img.marks = {5};
  img.pairs = {{1, 10}, {2, 20}};  // the dump holds the FULL txn
  ASSERT_TRUE(persist::write_snapshot(td.path, img));
  write_raw(td.path, persist::segment_name(1, 0, 0),
            {{RecordType::kTxnIntent, 1, 8, 0},
             {RecordType::kTxnData, 2, 1, 10},
             {RecordType::kTxnIntent, 3, 8, 0},
             {RecordType::kTxnData, 4, 2, 20},
             {RecordType::kSnapshotMark, 5, 1, 1}});
  persist::RecoveryPlan plan = persist::plan_recovery(td.path);
  ASSERT_TRUE(plan.snapshot_valid);
  // Commit lost — the txn resolves uncommitted — yet the state is the
  // complete transaction, via the snapshot: all-or-nothing holds.
  EXPECT_FALSE(persist::resolve_txns(plan).committed(8));
  const auto m = fold(plan);
  const std::map<std::uint64_t, std::uint64_t> want{{1, 10}, {2, 20}};
  EXPECT_EQ(m, want);
}

// ---- append2: the atomic intent-pair reservation on a live stream ----

TEST(TxnWal, Append2ReservesAdjacentLsnsAndReturnsThePayloads) {
  TempDir td;
  persist::Options opts;
  opts.sync = persist::SyncMode::kBatched;
  persist::ShardWal wal(td.path, 1, 0, opts);
  const std::uint64_t lsn2 = wal.append2(RecordType::kTxnIntent, 7, 0,
                                         RecordType::kTxnData, 42, 4200);
  EXPECT_EQ(lsn2, 2u);
  wal.append(RecordType::kPut, 1, 1);
  wal.flush_now();
  wal.close();
  persist::DirListing ls = persist::list_dir(td.path);
  ASSERT_EQ(ls.streams.size(), 1u);
  const std::vector<Record> got = persist::read_stream(ls.streams[0]);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].type, RecordType::kTxnIntent);
  EXPECT_EQ(got[0].lsn, 1u);
  EXPECT_EQ(got[1].type, RecordType::kTxnData);
  EXPECT_EQ(got[1].lsn, 2u);
  EXPECT_EQ(got[1].key, 42u);
  EXPECT_EQ(got[1].value, 4200u);
}

// Concurrent pair appenders (plus a plain-append antagonist): the
// fetch_add(2) reservation means no record EVER lands between an intent
// and its payload, whatever the interleaving.
TEST(TxnWal, ConcurrentPairsNeverInterleave) {
  TempDir td;
  persist::Options opts;
  opts.sync = persist::SyncMode::kBatched;
  persist::ShardWal wal(td.path, 1, 0, opts);
  constexpr unsigned kThreads = 3;
  constexpr int kPairs = 400;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPairs; ++i)
        wal.append2(RecordType::kTxnIntent, t + 1, 0, RecordType::kTxnData,
                    static_cast<std::uint64_t>(i), t);
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kPairs; ++i)
      wal.append(RecordType::kPut, 7777, static_cast<std::uint64_t>(i));
  });
  for (auto& t : threads) t.join();
  wal.flush_now();
  wal.close();
  persist::DirListing ls = persist::list_dir(td.path);
  const std::vector<Record> got = persist::read_stream(ls.streams[0]);
  ASSERT_EQ(got.size(), kThreads * kPairs * 2 + kPairs);
  std::uint64_t pairs = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].type == RecordType::kTxnIntent) {
      ASSERT_LT(i + 1, got.size());
      ASSERT_EQ(got[i + 1].type, RecordType::kTxnData);
      ASSERT_EQ(got[i + 1].lsn, got[i].lsn + 1);
      ++pairs;
      ++i;
    } else {
      ASSERT_EQ(got[i].type, RecordType::kPut);
    }
  }
  EXPECT_EQ(pairs, kThreads * kPairs);
}

// Rotation on the commit stream: pairs and commits keep resolving when
// the stream spans segments, and a pair never straddles a mark (the
// rotation point is the mark's own LSN).
TEST(TxnWal, CommitStreamRotationPreservesResolution) {
  TempDir td;
  persist::Options opts;
  opts.sync = persist::SyncMode::kBatched;
  persist::ShardWal wal(td.path, 1, 0, opts);
  wal.append2(RecordType::kTxnIntent, 5, 0, RecordType::kTxnData, 1, 10);
  const std::uint64_t mark = wal.append(RecordType::kSnapshotMark, 1, 1);
  wal.rotate_at(mark);
  wal.flush_now();
  wal.append2(RecordType::kTxnIntent, 5, 0, RecordType::kTxnData, 2, 20);
  wal.append(RecordType::kTxnCommit, 5, 2);
  wal.flush_now();
  wal.close();
  persist::DirListing ls = persist::list_dir(td.path);
  ASSERT_EQ(ls.streams.size(), 1u);
  ASSERT_EQ(ls.streams[0].segments.size(), 2u);  // rotated at the mark
  persist::RecoveryPlan plan = persist::plan_recovery(td.path);
  EXPECT_TRUE(persist::resolve_txns(plan).committed(5));
  const auto m = fold(plan);
  const std::map<std::uint64_t, std::uint64_t> want{{1, 10}, {2, 20}};
  EXPECT_EQ(m, want);
}

// ---- store level: cas / incr / txn_commit across every scheme ----

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
class TxnStoreTest : public ::testing::Test {};

TYPED_TEST_SUITE(TxnStoreTest, test::AllTrackers);

TYPED_TEST(TxnStoreTest, CasContract) {
  Store<TypeParam> store(small_cfg<TypeParam>());
  EXPECT_FALSE(store.cas(1, 0, 5, 0));  // absent: no write
  EXPECT_FALSE(store.contains(1, 0));

  ASSERT_TRUE(store.put(1, 10, 0));
  const std::uint64_t retires0 = store.stats().total().value_cell_retires;
  // Wrong expected: fails, writes nothing, and — the contract this test
  // pins — retires NO cell (the pre-allocated desired cell goes back
  // through dealloc, not retire).
  EXPECT_FALSE(store.cas(1, 99, 11, 0));
  EXPECT_EQ(store.stats().total().value_cell_retires, retires0);
  EXPECT_EQ(*store.get(1, 0), 10u);

  EXPECT_TRUE(store.cas(1, 10, 11, 0));  // success retires the old cell
  EXPECT_EQ(store.stats().total().value_cell_retires, retires0 + 1);
  EXPECT_EQ(*store.get(1, 0), 11u);
  EXPECT_EQ(store.stats().total().cas_ops, 3u);

  store.flush_retired(0);
  test::expect_block_balance(store.stats().total(), store.size_unsafe(),
                             "cas abort paths");
}

TYPED_TEST(TxnStoreTest, IncrContract) {
  Store<TypeParam> store(small_cfg<TypeParam>());
  EXPECT_EQ(store.incr(1, 5, 0), 5u);   // absent: created at delta
  EXPECT_EQ(store.incr(1, 3, 0), 8u);   // present: fetch-add
  EXPECT_EQ(*store.get(1, 0), 8u);
  store.remove(1, 0);
  EXPECT_EQ(store.incr(1, 2, 0), 2u);   // recreated after remove
}

TYPED_TEST(TxnStoreTest, ConcurrentIncrStormSumsExactly) {
  constexpr unsigned kThreads = 4;
  // WFE_TEST_OPS shrinks the storm for the sanitizer jobs.
  const int kIncrsPerThread =
      static_cast<int>(harness::env_long("WFE_TEST_OPS", 1200));
  constexpr std::uint64_t kKeys = 4;
  Store<TypeParam> store(small_cfg<TypeParam>(kThreads));
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      util::Xoshiro256 rng(tid + 31);
      std::uint64_t mine = 0;
      for (int i = 0; i < kIncrsPerThread; ++i) {
        const std::uint64_t delta = rng.next_bounded(8) + 1;
        store.incr(rng.next_bounded(kKeys) + 1, delta, tid);
        mine += delta;
      }
      total.fetch_add(mine);
      store.flush_retired(tid);
    });
  }
  for (auto& t : threads) t.join();
  std::uint64_t sum = 0;
  for (std::uint64_t k = 1; k <= kKeys; ++k) sum += *store.get(k, 0);
  EXPECT_EQ(sum, total.load());  // no lost updates, no double-counts
  test::expect_block_balance(store.stats().total(), store.size_unsafe(),
                             "incr storm");
}

TYPED_TEST(TxnStoreTest, TxnCommitAppliesTheWholeBatch) {
  Store<TypeParam> store(small_cfg<TypeParam>());
  ASSERT_TRUE(store.put(100, 1, 0));  // to be removed by the txn
  ASSERT_TRUE(store.put(200, 2, 0));  // to be replaced by the txn

  txn::Txn<std::uint64_t, std::uint64_t> t;
  t.put(200, 22);
  for (std::uint64_t k = 1; k <= 64; ++k) t.put(k, k * 10);  // spans shards
  t.remove(100);
  t.remove(999);        // absent: installs nothing, still logs its pair
  t.put(50, 555);       // duplicate key: folds over the earlier put(50)
  const std::uint64_t id = store.txn_commit(t, 0);
  EXPECT_GT(id, 0u);

  EXPECT_FALSE(store.contains(100, 0));
  EXPECT_EQ(*store.get(200, 0), 22u);
  EXPECT_EQ(*store.get(50, 0), 555u);
  for (std::uint64_t k = 1; k <= 64; ++k) {
    if (k != 50) {
      EXPECT_EQ(*store.get(k, 0), k * 10) << "key " << k;
    }
  }
  EXPECT_EQ(store.size_unsafe(), 65u);  // 64 puts + key 200, key 100 gone

  const kv::KvStats st = store.stats();
  EXPECT_EQ(st.txn_commits, 1u);
  // All processed buffered ops count: 65 deduped upserts + both removes
  // (the absent one completes as a no-op but was still processed).
  EXPECT_EQ(st.total().txn_ops, 67u);

  // A second commit gets a strictly newer id (ids are never reused).
  txn::Txn<std::uint64_t, std::uint64_t> t2;
  t2.put(1, 11);
  EXPECT_GT(store.txn_commit(t2, 0), id);

  store.flush_retired(0);
  test::expect_block_balance(store.stats().total(), store.size_unsafe(),
                             "txn_commit");
}

TYPED_TEST(TxnStoreTest, AbortIsDroppingTheBuffer) {
  Store<TypeParam> store(small_cfg<TypeParam>());
  ASSERT_TRUE(store.put(1, 10, 0));
  {
    txn::Txn<std::uint64_t, std::uint64_t> t;
    t.put(1, 99);
    t.put(2, 20);
    t.clear();  // abort: nothing was ever installed, logged, or retired
    EXPECT_TRUE(t.empty());
    t.put(3, 30);
  }  // dropped without commit: equally nothing
  EXPECT_EQ(*store.get(1, 0), 10u);
  EXPECT_FALSE(store.contains(2, 0));
  EXPECT_FALSE(store.contains(3, 0));
  EXPECT_EQ(store.stats().txn_commits, 0u);
  EXPECT_EQ(store.size_unsafe(), 1u);
  // Empty commit: no id burned, no record written.
  txn::Txn<std::uint64_t, std::uint64_t> e;
  EXPECT_EQ(store.txn_commit(e, 0), 0u);
}

// Every write entry point appends WAL bytes, so each one alone must be
// able to trigger the size-driven auto-snapshot.  Each case gets its
// own directory: keys 1..64 are loaded with auto-snapshot off, then the
// store reopens with snapshot_every_bytes = 1 (checked on every write)
// and only the entry point under test runs.
TYPED_TEST(TxnStoreTest, EveryWriteEntryPointDrivesAutoSnapshot) {
  using S = Store<TypeParam>;
  using KV = std::pair<std::uint64_t, std::uint64_t>;
  const std::vector<std::pair<const char*, std::function<void(S&)>>> cases = {
      {"put", [](S& s) { s.put(1, 2, 0); }},
      {"insert", [](S& s) { s.insert(100, 2, 0); }},
      {"update", [](S& s) { s.update(1, 2, 0); }},
      {"remove", [](S& s) { s.remove(1, 0); }},
      {"cas", [](S& s) { s.cas(1, 1, 2, 0); }},
      {"multi_put", [](S& s) { s.multi_put(std::vector<KV>{{1, 2}, {2, 3}}, 0); }},
      {"multi_remove", [](S& s) { s.multi_remove(std::vector<std::uint64_t>{1, 2}, 0); }},
      {"txn_commit", [](S& s) {
         txn::Txn<std::uint64_t, std::uint64_t> t;
         t.put(1, 2);
         t.remove(2);
         s.txn_commit(t, 0);
       }},
  };
  for (const auto& [name, write] : cases) {
    SCOPED_TRACE(name);
    TempDir td;
    auto cfg = small_cfg<TypeParam>(2, 2);
    cfg.persistence.enabled = true;
    cfg.persistence.dir = td.path;
    cfg.persistence.sync = persist::SyncMode::kBatched;
    cfg.persistence.flush_idle_us = 100;
    cfg.persistence.snapshot_on_open = false;
    {
      S store(cfg);
      for (std::uint64_t k = 1; k <= 64; ++k) ASSERT_TRUE(store.put(k, k, 0));
    }
    cfg.persistence.snapshot_every_bytes = 1;
    cfg.persistence.snapshot_check_interval = 1;
    S store(cfg);
    ASSERT_EQ(store.stats().snapshots_written, 0u);
    write(store);
    EXPECT_GE(store.stats().snapshots_written, 1u);
  }
}

// ---- persistence round trip (one scheme: the protocol under test is
// the store's, not the tracker's) ----

TEST(TxnPersist, CommitsSurviveCleanReopenAndIdsResumePastRecovery) {
  TempDir td;
  auto cfg = small_cfg<core::WfeTracker>(2, 2);
  cfg.persistence.enabled = true;
  cfg.persistence.dir = td.path;
  cfg.persistence.sync = persist::SyncMode::kBatched;
  cfg.persistence.flush_idle_us = 100;
  cfg.persistence.snapshot_on_open = false;
  std::uint64_t id2 = 0;
  {
    Store<core::WfeTracker> store(cfg);
    txn::Txn<std::uint64_t, std::uint64_t> t1;
    t1.put(1, 10);
    t1.put(2, 20);
    t1.put(3, 30);
    const std::uint64_t id1 = store.txn_commit(t1, 0);
    txn::Txn<std::uint64_t, std::uint64_t> t2;
    t2.remove(2);
    t2.put(4, 40);
    id2 = store.txn_commit(t2, 0);
    EXPECT_GT(id2, id1);
    store.put(5, 50, 0);  // plain traffic interleaves freely
  }  // clean close: streams flush durably
  {
    Store<core::WfeTracker> store(cfg);
    EXPECT_EQ(*store.get(1, 0), 10u);
    EXPECT_FALSE(store.contains(2, 0));
    EXPECT_EQ(*store.get(3, 0), 30u);
    EXPECT_EQ(*store.get(4, 0), 40u);
    EXPECT_EQ(*store.get(5, 0), 50u);
    EXPECT_EQ(store.size_unsafe(), 4u);
    // The id counter reseeded PAST everything recovered: a fresh commit
    // can never collide with an old (possibly orphaned) transaction.
    txn::Txn<std::uint64_t, std::uint64_t> t3;
    t3.put(6, 60);
    EXPECT_GT(store.txn_commit(t3, 0), id2);
    EXPECT_EQ(*store.get(6, 0), 60u);
  }
}

// A committed remove of an ABSENT key still appends its intent pair.
// The pair is what makes the commit's promise ("the key is gone") hold
// at recovery: the kill harness found a schedule where an earlier put
// of k survived the crash while the singleton remove that had emptied
// k before the txn was torn off the unacked tail — after the rewind
// only the txn's own remove pair re-erases the resurrected key, so the
// no-op remove must log unconditionally.
TEST(TxnPersist, RemoveOfAbsentKeyStillLogsItsPair) {
  TempDir td;
  auto cfg = small_cfg<core::WfeTracker>(2, 1);  // one shard, one stream
  cfg.persistence.enabled = true;
  cfg.persistence.dir = td.path;
  cfg.persistence.sync = persist::SyncMode::kBatched;
  cfg.persistence.flush_idle_us = 100;
  cfg.persistence.snapshot_on_open = false;
  std::uint64_t id = 0;
  {
    Store<core::WfeTracker> store(cfg);
    txn::Txn<std::uint64_t, std::uint64_t> t;
    t.remove(999);  // never existed: the memory apply is a no-op
    id = store.txn_commit(t, 0);
    ASSERT_NE(id, 0u);
    // intent + data + commit: the no-op remove still cost its pair.
    EXPECT_EQ(store.stats().shards[0].wal_appended_lsn, 3u);
  }  // clean close
  // The commit declared exactly the pairs it wrote, so the txn resolves
  // committed (a declared/found mismatch would drop it wholesale), and
  // folding a remove over an absent key stays a no-op.
  persist::RecoveryPlan plan = persist::plan_recovery(td.path);
  EXPECT_TRUE(persist::resolve_txns(plan).committed(id));
  EXPECT_TRUE(fold(plan).empty());
}

// kAlways: txn_commit must not return before every intent pair AND the
// commit record are durable (a durable commit with torn pairs would be
// DROPPED at recovery, so acking the commit alone would be a lie).
TEST(TxnPersist, AlwaysModeCommitReturnsFullyDurable) {
  TempDir td;
  auto cfg = small_cfg<core::WfeTracker>(2, 2);
  cfg.persistence.enabled = true;
  cfg.persistence.dir = td.path;
  cfg.persistence.sync = persist::SyncMode::kAlways;
  cfg.persistence.snapshot_on_open = false;
  Store<core::WfeTracker> store(cfg);
  txn::Txn<std::uint64_t, std::uint64_t> t;
  for (std::uint64_t k = 1; k <= 32; ++k) t.put(k, k);
  ASSERT_GT(store.txn_commit(t, 0), 0u);
  const kv::KvStats st = store.stats();
  for (const auto& s : st.shards) {
    EXPECT_EQ(s.wal_appended_lsn, s.wal_durable_lsn) << "shard " << s.shard;
    EXPECT_EQ(s.wal_durable_lag, 0u);
  }
}

}  // namespace
