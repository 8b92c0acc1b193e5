// Oracle stress suite for the sharded kv store: recorded operation
// streams run concurrently against BOTH the lock-free KvStore and a
// mutex-guarded std::unordered_map reference, in lockstep per op, and
// the two states are diffed after every phase.
//
// Determinism argument: each thread's stream draws keys only from its
// own disjoint key slice, so per-slice state depends only on that
// thread's (recorded, sequential) stream — any interleaving of the
// slices yields the same final map, and each op's RESULT (insert/remove
// success, get value, multi_put insert count) is deterministic too.
// That lets the oracle check every single return value, not just the
// final state, while the store underneath still takes fully concurrent
// traffic (shared shards, shared buckets, shared reclamation domains,
// cross-shard multi-op sessions).
//
// Runs across all 8 trackers.  The recorded streams cover every
// cross-shard multi-op — multi_get, multi_put and multi_remove —
// against per-key reference results, and the transactional surface:
// txn_commit (applied to the reference atomically under ONE lock hold,
// then diffed key-by-key right after the commit returns), cas (present
// keys must swap exactly once, wrong expectations must not write) and
// incr (exact running sums).
//
// Ordered access: the store runs with the secondary ordered index ON,
// and the streams include kScan ops — each thread scans windows of its
// OWN slice and diffs the visited (key, value) sequence against the
// reference's ordered view of that window.  Slice-locality makes the
// expected window deterministic mid-run even though the index tree
// itself takes fully concurrent insert/remove/scan traffic from all
// threads (and, in resize mode, scans that forward across frozen
// buckets).  At quiescence the index's own reclamation domain must
// close on the 3-blocks-per-live-key ledger identity.
//
// Resize-aware mode: a dedicated control thread interleaves online
// resize() calls with each phase's traffic (and phases themselves start
// from whatever geometry the previous phase ended on — "random phase
// boundaries" in the recorded-stream sense: the boundary geometry is
// derived from the phase seed).  Slice determinism is geometry-blind,
// so every per-op result assert and every phase-boundary state diff
// must hold bit-for-bit across migrations.  WFE_TEST_OPS scales the
// per-thread op count down for the sanitizer CI jobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/runner.hpp"
#include "kv/kv_store.hpp"
#include "kv_balance.hpp"
#include "tracker_types.hpp"
#include "txn/txn.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;

template <class TR>
using Store = kv::KvStore<std::uint64_t, std::uint64_t, TR>;

constexpr unsigned kThreads = 4;
constexpr unsigned kResizerTid = kThreads;  // the control thread's slot
constexpr unsigned kPhases = 3;
constexpr std::uint64_t kSlice = 512;      // keys per thread slice
constexpr std::size_t kMultiBatch = 8;     // span width of multi-ops

unsigned ops_per_thread() {
  return static_cast<unsigned>(harness::env_long("WFE_TEST_OPS", 2500));
}

struct Op {
  enum Kind : std::uint8_t { kInsert, kPut, kUpdate, kRemove, kGet,
                             kMultiPut, kMultiGet, kMultiRemove,
                             kTxn, kCas, kIncr, kScan };
  Kind kind;
  std::uint64_t key;    // base key for multi-ops and txns
  std::uint64_t value;  // for kTxn also the per-key put/remove bit source
};

/// Record one thread-phase's stream up front ("recorded op streams"):
/// the run must replay exactly what was generated, so failures are
/// reproducible from (seed, tid, phase).
std::vector<Op> record_stream(unsigned tid, unsigned phase) {
  util::Xoshiro256 rng(0x5eedULL + tid * 7919 + phase * 104729);
  const std::uint64_t base = 1 + tid * kSlice;
  const unsigned nops = ops_per_thread();
  std::vector<Op> ops;
  ops.reserve(nops);
  for (unsigned i = 0; i < nops; ++i) {
    Op op;
    const auto r = rng.next_bounded(21);
    op.kind = r < 3   ? Op::kInsert
              : r < 6 ? Op::kPut
              : r < 8 ? Op::kUpdate
              : r < 10 ? Op::kRemove
              : r < 13 ? Op::kGet
              : r < 14 ? Op::kMultiPut
              : r < 15 ? Op::kMultiGet
              : r < 16 ? Op::kMultiRemove
              : r < 17 ? Op::kTxn
              : r < 18 ? Op::kCas
              : r < 19 ? Op::kIncr
                       : Op::kScan;
    // Multi-ops use kMultiBatch consecutive keys starting at key; keep
    // the span inside the slice so the stream stays slice-local.
    op.key = base + rng.next_bounded(kSlice - kMultiBatch);
    op.value = rng.next();
    ops.push_back(op);
  }
  return ops;
}

/// The mutex-guarded reference.  Every access locks: threads share one
/// unordered_map even though their key slices are disjoint.
struct Reference {
  std::mutex mu;
  std::unordered_map<std::uint64_t, std::uint64_t> map;

  bool insert(std::uint64_t k, std::uint64_t v) {
    std::lock_guard<std::mutex> g(mu);
    return map.emplace(k, v).second;
  }
  bool put(std::uint64_t k, std::uint64_t v) {  // returns "was absent"
    std::lock_guard<std::mutex> g(mu);
    auto [it, inserted] = map.insert_or_assign(k, v);
    (void)it;
    return inserted;
  }
  bool update(std::uint64_t k, std::uint64_t v) {
    std::lock_guard<std::mutex> g(mu);
    auto it = map.find(k);
    if (it == map.end()) return false;
    it->second = v;
    return true;
  }
  std::optional<std::uint64_t> remove(std::uint64_t k) {
    std::lock_guard<std::mutex> g(mu);
    auto it = map.find(k);
    if (it == map.end()) return std::nullopt;
    const std::uint64_t v = it->second;
    map.erase(it);
    return v;
  }
  std::optional<std::uint64_t> get(std::uint64_t k) {
    std::lock_guard<std::mutex> g(mu);
    auto it = map.find(k);
    return it == map.end() ? std::nullopt : std::make_optional(it->second);
  }
  /// Ordered view of [lo, hi) — the expected result of a store scan
  /// over a slice-local window (deterministic: only the scanning thread
  /// mutates keys in its slice).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> scan_window(
      std::uint64_t lo, std::uint64_t hi) {
    std::lock_guard<std::mutex> g(mu);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (const auto& [k, v] : map)
      if (k >= lo && k < hi) out.emplace_back(k, v);
    std::sort(out.begin(), out.end());
    return out;
  }
  /// Atomic multi-key apply: ONE lock hold is the reference's commit,
  /// matching txn_commit's all-or-nothing contract.
  void txn(const std::vector<txn::TxnOp<std::uint64_t, std::uint64_t>>& ops) {
    std::lock_guard<std::mutex> g(mu);
    for (const auto& o : ops) {
      if (o.is_remove)
        map.erase(o.key);
      else
        map[o.key] = o.value;
    }
  }
};

template <class TR>
kv::KvConfig oracle_cfg() {
  kv::KvConfig c;
  c.shards = 4;
  c.buckets_per_shard = 64;
  c.ordered_index = true;  // kScan stream ops go through the BST index
  c.tracker.max_threads = kThreads + 1;  // +1: the resize control thread
  c.tracker.max_hes = Store<TR>::kSlotsNeeded;
  c.tracker.era_freq = 8;
  c.tracker.cleanup_freq = 4;
  c.tracker.retire_batch = 4;
  // WFE_TEST_ADMIT=1 runs the whole oracle with the admission
  // controller live (fast driver ticks, limits so generous nothing is
  // ever shed): the sanitizer jobs then race the store's admission
  // gate and the driver against every op shape, exercising the
  // controller's concurrency rather than its control law.
  if (std::getenv("WFE_TEST_ADMIT") != nullptr) {
    c.admission.enabled = true;
    c.admission.max_write_rate = 1e12;
    c.admission.wal_lag_target = 1e12;
    c.admission.retire_backlog_target = 1e12;
    c.admission.commit_wait_p99_target_ns = 1e15;
    c.metrics.sample_interval_ms = 5;
    c.admission.tick_ms = 2;
  }
  return c;
}

/// Replays one recorded stream against both systems in lockstep,
/// asserting every result matches.
template <class TR>
void replay(Store<TR>& store, Reference& ref, const std::vector<Op>& ops,
            unsigned tid) {
  std::vector<std::uint64_t> mkeys(kMultiBatch);
  std::vector<std::optional<std::uint64_t>> mout(kMultiBatch);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> mputs(kMultiBatch);
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kInsert:
        ASSERT_EQ(store.insert(op.key, op.value, tid),
                  ref.insert(op.key, op.value));
        break;
      case Op::kPut:
        ASSERT_EQ(store.put(op.key, op.value, tid), ref.put(op.key, op.value));
        break;
      case Op::kUpdate:
        ASSERT_EQ(store.update(op.key, op.value, tid),
                  ref.update(op.key, op.value));
        break;
      case Op::kRemove:
        ASSERT_EQ(store.remove(op.key, tid), ref.remove(op.key));
        break;
      case Op::kGet:
        ASSERT_EQ(store.get(op.key, tid), ref.get(op.key));
        break;
      case Op::kMultiPut: {
        for (std::size_t i = 0; i < kMultiBatch; ++i)
          mputs[i] = {op.key + i, op.value + i};
        std::size_t ref_inserted = 0;
        for (const auto& [k, v] : mputs) ref_inserted += ref.put(k, v) ? 1 : 0;
        ASSERT_EQ(store.multi_put(mputs.data(), kMultiBatch, tid), ref_inserted);
        break;
      }
      case Op::kMultiGet: {
        for (std::size_t i = 0; i < kMultiBatch; ++i) mkeys[i] = op.key + i;
        store.multi_get(mkeys.data(), kMultiBatch, mout.data(), tid);
        for (std::size_t i = 0; i < kMultiBatch; ++i)
          ASSERT_EQ(mout[i], ref.get(mkeys[i])) << "multi_get key " << mkeys[i];
        break;
      }
      case Op::kMultiRemove: {
        for (std::size_t i = 0; i < kMultiBatch; ++i) mkeys[i] = op.key + i;
        std::vector<std::optional<std::uint64_t>> ref_out(kMultiBatch);
        std::size_t ref_removed = 0;
        for (std::size_t i = 0; i < kMultiBatch; ++i) {
          ref_out[i] = ref.remove(mkeys[i]);
          ref_removed += ref_out[i].has_value() ? 1 : 0;
        }
        ASSERT_EQ(store.multi_remove(mkeys.data(), kMultiBatch, mout.data(),
                                     tid),
                  ref_removed);
        for (std::size_t i = 0; i < kMultiBatch; ++i)
          ASSERT_EQ(mout[i], ref_out[i]) << "multi_remove key " << mkeys[i];
        break;
      }
      case Op::kTxn: {
        // Mixed put/remove batch over the multi-op span; bit i of
        // op.value picks the action for key op.key + i.
        txn::Txn<std::uint64_t, std::uint64_t> t;
        for (std::size_t i = 0; i < kMultiBatch; ++i) {
          if ((op.value >> i) & 1)
            t.remove(op.key + i);
          else
            t.put(op.key + i, op.value + i);
        }
        ref.txn(t.ops());
        ASSERT_NE(store.txn_commit(t, tid), 0u);
        // Per-commit diff: every key the txn touched must read back as
        // the reference's post-commit state (keys are slice-local, so
        // no other thread can have moved them in between).
        for (const auto& o : t.ops())
          ASSERT_EQ(store.get(o.key, tid), ref.get(o.key))
              << "txn key " << o.key;
        break;
      }
      case Op::kCas: {
        const auto cur = ref.get(op.key);
        if (cur.has_value()) {
          ASSERT_TRUE(store.cas(op.key, *cur, op.value, tid));
          ref.put(op.key, op.value);
          // A stale expectation must fail without writing.
          ASSERT_FALSE(store.cas(op.key, op.value + 1, 7, tid));
          ASSERT_EQ(store.get(op.key, tid), std::make_optional(op.value));
        } else {
          ASSERT_FALSE(store.cas(op.key, 0, op.value, tid));
          ASSERT_EQ(store.get(op.key, tid), std::nullopt);
        }
        break;
      }
      case Op::kIncr: {
        const std::uint64_t delta = (op.value & 0xff) + 1;
        const std::uint64_t want = ref.get(op.key).value_or(0) + delta;
        ref.put(op.key, want);
        ASSERT_EQ(store.incr(op.key, delta, tid), want);
        break;
      }
      case Op::kScan: {
        // Window inside this thread's slice (sometimes the whole slice,
        // exercising the index-side chunk fences); the scan's visited
        // sequence must be EXACTLY the reference's ordered view — same
        // keys, same values, ascending, no duplicates.
        const std::uint64_t base = 1 + tid * kSlice;
        const std::uint64_t lo = op.key;
        const std::uint64_t hi =
            std::min(base + kSlice, lo + 1 + op.value % kSlice);
        const auto want = ref.scan_window(lo, hi);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
        const std::size_t visited = store.scan(
            lo, hi - 1,
            [&](std::uint64_t k, const std::uint64_t& v) {
              got.emplace_back(k, v);
              return true;
            },
            tid);
        ASSERT_EQ(visited, want.size()) << "scan [" << lo << "," << hi << ")";
        ASSERT_EQ(got, want) << "scan window [" << lo << "," << hi << ")";
        break;
      }
    }
  }
  store.flush_retired(tid);
}

/// Diffs the full store state against the reference (phase boundary;
/// all threads joined, so the unsafe snapshot is exact).
template <class TR>
void diff_states(Store<TR>& store, Reference& ref, unsigned phase) {
  std::map<std::uint64_t, std::uint64_t> got;
  store.for_each_unsafe([&](std::uint64_t k, std::uint64_t v) {
    ASSERT_TRUE(got.emplace(k, v).second) << "duplicate key " << k;
  });
  std::map<std::uint64_t, std::uint64_t> want(ref.map.begin(), ref.map.end());
  ASSERT_EQ(got, want) << "state diverged from oracle after phase " << phase;
  ASSERT_EQ(store.size_unsafe(), want.size());
}

template <class TR>
void run_oracle(bool with_resize) {
  Store<TR> store(oracle_cfg<TR>());
  Reference ref;
  for (unsigned phase = 0; phase < kPhases; ++phase) {
    std::vector<std::vector<Op>> streams;
    for (unsigned t = 0; t < kThreads; ++t)
      streams.push_back(record_stream(t, phase));
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        replay<TR>(store, ref, streams[t], t);
      });
    }
    if (with_resize) {
      // Control thread: online resizes concurrent with the replay.  The
      // target counts come from the phase's recorded seed, so a failure
      // reproduces from (seed, phase) like every other recorded op.
      std::thread resizer([&] {
        util::Xoshiro256 rng(0xc0ffeeULL + phase * 104729);
        static constexpr std::size_t kCounts[] = {1, 2, 8, 16, 32};
        for (unsigned r = 0; r < 3; ++r) {
          store.resize(kCounts[rng.next_bounded(5)], kResizerTid);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        store.flush_retired(kResizerTid);
      });
      resizer.join();  // boundary resize may outlive the replay: fine
    }
    for (auto& th : threads) th.join();
    diff_states<TR>(store, ref, phase);
  }
  // Block conservation: every allocation in the CURRENT table's domains
  // is live in the map (node + value cell per key), buffered, queued,
  // or freed — migration keeps this identity per table because copies
  // allocate in the destination domain and drains retire in the source.
  const kv::KvStats st = store.stats();
  const kv::ShardStats tot = st.total();
  test::expect_block_balance(tot, store.size_unsafe(), "oracle final");
  // batched_ops is a per-table counter: in resize mode the final table
  // may have been created after the last multi-op ran, so only the
  // fixed-geometry runs can demand it ticked.
  if (!with_resize) {
    EXPECT_GT(tot.batched_ops, 0u);
  }
  if (with_resize) {
    for (const kv::ResizeRecord& r : st.resizes) {
      EXPECT_EQ(r.cells_retired, r.migrated_keys);
      EXPECT_GE(r.nodes_retired, r.migrated_keys);
    }
  }
  // Ordered-index lanes: the kScan stream ops must have gone through the
  // BST (ops and visited keys both tick), and at quiescence the index
  // domain's ledger closes on its own 3-blocks-per-live-key identity
  // (leaf + internal + value cell; sentinels pre-subtracted).
  ASSERT_TRUE(st.ordered_index);
  EXPECT_GT(st.scan_ops, 0u);
  EXPECT_GT(st.scan_keys, 0u);
  test::expect_block_balance(st.index, store.size_unsafe(), "oracle index",
                             /*blocks_per_live_key=*/3);
}

template <class TR>
class KvOracleTest : public ::testing::Test {};

TYPED_TEST_SUITE(KvOracleTest, test::AllTrackers);

TYPED_TEST(KvOracleTest, InPlaceUpsertsMatchOracle) {
  run_oracle<TypeParam>(/*with_resize=*/false);
}

TYPED_TEST(KvOracleTest, InPlaceUpsertsMatchOracleAcrossResize) {
  run_oracle<TypeParam>(/*with_resize=*/true);
}

// Scans look each index chunk up in the primary as one batch, so a
// bounded range_get must size its chunks by the visits it still owes,
// not by the 128-key chunk: max = 5 does at most 5 primary lookups.
TYPED_TEST(KvOracleTest, RangeGetMaxBoundsPrimaryLookups) {
  Store<TypeParam> store(oracle_cfg<TypeParam>());
  for (std::uint64_t k = 1; k <= 600; ++k) ASSERT_TRUE(store.insert(k, 3 * k, 0));
  const std::uint64_t gets_before = store.stats().total().gets;
  std::pair<std::uint64_t, std::uint64_t> out[5];
  ASSERT_EQ(store.range_get(100, 600, out, 5, 0), 5u);
  EXPECT_LE(store.stats().total().gets - gets_before, 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].first, 100 + i);
    EXPECT_EQ(out[i].second, 3 * (100 + i));
  }
  // Fewer keys in the window than max: all of them, still ascending.
  ASSERT_EQ(store.range_get(598, 5000, out, 5, 0), 3u);
  EXPECT_EQ(out[0].first, 598u);
  EXPECT_EQ(out[2].first, 600u);
  EXPECT_EQ(store.range_get(1, 600, out, 0, 0), 0u);
}

}  // namespace
