// Recovery oracle: kill the persistent kv store at randomized points
// and prove, against an independently maintained journal, that reopen
// reconstructs exactly the surviving log prefix —
//
//   * every ACKNOWLEDGED-DURABLE op (record LSN <= the stream's durable
//     watermark at the crash) is present after reopen;
//   * no unacknowledged op is partially applied: the recovered state is
//     the fold of a clean per-stream record PREFIX, never a record that
//     was torn or corrupted, never a suffix beyond the cut;
//   * CRC (and the record-size check) reject the torn tail the test
//     manufactures by truncating mid-record and flipping bytes in the
//     never-fsynced region.
//
// The crash is injected, not forked: persist_suppress_sync() freezes
// the durable watermark at a random op count C1 (everything before C1
// is fsynced group-commit style; everything after sits in the
// "page cache" — written but never synced), ops continue to C2, then
// persist_crash() stops the flushers cold.  The test then plays the
// kernel's role in the crash: it keeps a random byte count of each
// stream's unsynced tail (>= the synced prefix, <= what was written),
// optionally cutting mid-record and corrupting a byte past the synced
// boundary, and reopens the store on the mangled directory.
//
// The oracle is a journal of (stream, lsn, op) kept by the driver: the
// run is single-threaded, so after each mutation the shard stream's
// appended-LSN is exactly that op's record.  Two iteration flavors:
//
//   Flavor A (plain, ~2/3 — may include a mid-run RESIZE before the
//   suppression point): no snapshot, so each current-epoch stream is
//   one segment whose byte<->LSN mapping the test derives itself; the
//   expected state is folded from the journal with INDEPENDENT
//   cutoffs (kept_bytes / 32, capped at the corrupted record).
//
//   Flavor B (with a mid-run snapshot, ~1/3): rotation makes byte
//   arithmetic stream-internal, so cutoffs come from re-reading the
//   mangled files with the product reader; the acked floor
//   (cutoff >= durable watermark) and the fold equality are still
//   asserted independently.
//
// Transactions ride every kill: the op mix includes multi-key
// txn_commit (INTENT pairs on the touched shard streams + one COMMIT
// on the shard-0 stream) and incr.  The independent per-stream cuts
// land kills between the pairs' flush and the COMMIT's flush in both
// directions — commit lost with pairs kept, pairs cut with commit
// kept — and the fold applies a txn's effects all-or-nothing: only if
// the COMMIT record AND every pair survive (or the whole txn predates
// the snapshot, whose dump covers it).  A recovery that installed a
// subset of a transaction fails the exact state diff.
//
// WFE_TEST_KILLS scales the kill-point count (default 100 — the
// acceptance bar); WFE_TEST_OPS the ops per kill.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/wfe.hpp"
#include "harness/runner.hpp"
#include "kv/kv_store.hpp"
#include "obs/flight.hpp"
#include "persist/recovery.hpp"
#include "reclaim/hp.hpp"
#include "scratch_dir.hpp"
#include "txn/txn.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;

template <class TR>
using Store = kv::KvStore<std::uint64_t, std::uint64_t, TR>;

constexpr std::uint64_t kKeyRange = 256;

unsigned env_unsigned(const char* name, unsigned fallback) {
  return static_cast<unsigned>(
      harness::env_long(name, static_cast<long>(fallback)));
}

struct JournalEntry {
  std::uint64_t epoch;
  std::uint64_t shard;
  std::uint64_t lsn;
  std::uint64_t key;
  std::uint64_t value;
  bool is_remove;
  std::uint64_t txn = 0;  // txn id for transactional effects (0 = singleton)
};

/// Where one transaction's records landed — enough for the fold to
/// decide survival per stream.  Single-threaded driver, so the deltas
/// of each stream's appended LSN around txn_commit are exactly the
/// txn's records: pairs back-to-back per shard, COMMIT appended last
/// on the epoch's shard-0 stream.
struct TxnMeta {
  std::uint64_t epoch = 0;
  std::uint64_t commit_lsn = 0;              // on the shard-0 stream
  std::array<std::uint64_t, 8> last_pair{};  // DATA lsn of the shard's last
                                             // pair (0 = no pairs there)
};

template <class TR>
kv::KvConfig oracle_cfg(const std::string& dir) {
  kv::KvConfig c;
  c.shards = 2;
  c.buckets_per_shard = 32;
  c.tracker.max_threads = 2;
  c.tracker.max_hes = Store<TR>::kSlotsNeeded;
  c.tracker.era_freq = 8;
  c.tracker.cleanup_freq = 4;
  c.tracker.retire_batch = 4;
  c.persistence.enabled = true;
  c.persistence.dir = dir;
  c.persistence.sync = persist::SyncMode::kBatched;
  c.persistence.flush_idle_us = 50;
  c.persistence.snapshot_on_open = false;  // keep reopen state inspectable
  // The black box rides every kill: flight recorder next to the WAL
  // (<dir>/flight.bin), sampler snapshots + slow-op traces feeding it,
  // watchdog at a generous bound (nothing here should stall — a report
  // in this harness would itself be a finding).
  c.metrics.enabled = true;
  c.metrics.sampler = true;
  c.metrics.sample_interval_ms = 10;
  c.metrics.sample_ring = 16;
  c.metrics.slow_op_ns = 1000;  // trace plenty of ops into the box
  c.metrics.flight = true;
  c.metrics.watchdog.enabled = true;
  c.metrics.watchdog.stall_bound_ns = 2'000'000'000;  // 2s
  return c;
}

/// One kill-point iteration; returns false on fatal assert (gtest).
template <class TR>
void run_kill_point(unsigned kill, const std::string& dir) {
  std::filesystem::remove_all(dir);
  util::Xoshiro256 rng(0x6b696c6cull + kill * 2654435761ull);
  const unsigned ops = env_unsigned("WFE_TEST_OPS", 400);
  const bool with_snapshot = kill % 3 == 2;   // flavor B
  const bool with_resize = kill % 4 == 1;     // flavor A + resize
  const unsigned resize_at = ops / 4 + static_cast<unsigned>(rng.next_bounded(ops / 8 + 1));
  const unsigned snapshot_at = ops / 3;
  const unsigned suppress_at =
      ops / 2 + static_cast<unsigned>(rng.next_bounded(ops / 2));

  std::vector<JournalEntry> journal;
  std::map<std::uint64_t, TxnMeta> txn_meta;
  std::vector<persist::CrashedTail> tails;
  std::uint64_t final_epoch = 1;
  std::uint64_t mark_epoch = 0;       // table epoch the mid-run snapshot saw
  std::uint64_t mark_floor[64] = {};  // flavor B: snapshot marks by shard

  const std::uint64_t t_open = obs::now_ns();
  {
    Store<TR> store(oracle_cfg<TR>(dir));
    const auto note = [&](std::uint64_t k, std::uint64_t v, bool is_rm) {
      const std::uint64_t s = store.shard_index(k);
      journal.push_back({store.table_epoch(), s,
                         store.shard_at(s).wal()->appended_lsn(), k, v, is_rm});
    };
    for (unsigned i = 0; i < ops; ++i) {
      if (with_resize && i == resize_at) store.resize(4, 0);
      if (with_snapshot && i == snapshot_at) {
        ASSERT_TRUE(store.snapshot_now(0));
        const kv::KvStats st = store.stats();
        // snapshot_now is the last appender on each stream before ops
        // resume, so the appended LSN is the mark.
        mark_epoch = st.table_epoch;
        for (std::size_t s = 0; s < st.shards.size(); ++s)
          mark_floor[s] = st.shards[s].wal_appended_lsn;
      }
      if (i == suppress_at) store.persist_suppress_sync(true);
      const std::uint64_t k = rng.next_bounded(kKeyRange) + 1;
      const std::uint64_t v = rng.next();
      switch (rng.next_bounded(12)) {
        case 0: case 1: case 2: case 3: case 4:
          store.put(k, v, 0);
          note(k, v, false);
          break;
        case 5:
          if (store.insert(k, v, 0)) note(k, v, false);
          break;
        case 6:
          if (store.update(k, v, 0)) note(k, v, false);
          break;
        case 7: {
          // Width-4 multi-key commit with a mixed put/remove batch.
          txn::Txn<std::uint64_t, std::uint64_t> t;
          for (unsigned j = 0; j < 4; ++j) {
            const std::uint64_t tk = rng.next_bounded(kKeyRange) + 1;
            if (rng.next_bounded(4) == 0)
              t.remove(tk);
            else
              t.put(tk, v + j);
          }
          const std::uint64_t nshards = store.shard_count();
          std::array<std::uint64_t, 8> pre{};
          for (std::uint64_t s = 0; s < nshards; ++s)
            pre[s] = store.shard_at(s).wal()->appended_lsn();
          const std::uint64_t id = store.txn_commit(t, 0);
          ASSERT_NE(id, 0u);
          TxnMeta m;
          m.epoch = store.table_epoch();
          m.commit_lsn = store.shard_at(0).wal()->appended_lsn();
          for (std::uint64_t s = 1; s < nshards; ++s) {
            const std::uint64_t post = store.shard_at(s).wal()->appended_lsn();
            if (post > pre[s]) m.last_pair[s] = post;
          }
          // Shard 0's stream carries its own pairs and then the COMMIT.
          if (m.commit_lsn - pre[0] > 1) m.last_pair[0] = m.commit_lsn - 1;
          txn_meta.emplace(id, m);
          for (const auto& o : t.ops())
            journal.push_back(
                {m.epoch, 0, 0, o.key, o.value, o.is_remove, id});
          break;
        }
        case 8:
          // One kPut record on success via either internal path
          // (insert when absent, value-cell CAS when present).
          note(k, store.incr(k, (v & 0xf) + 1, 0), false);
          break;
        default:
          if (store.remove(k, 0).has_value()) note(k, 0, true);
          break;
      }
    }
    final_epoch = store.table_epoch();
    tails = store.persist_crash();
  }
  const std::uint64_t kill_ns = obs::now_ns();

  // ---- the black box: every killed run must leave a parseable flight
  // file whose tail is consistent with the kill point — CRC-valid,
  // seq-contiguous, timestamps bracketed by [open, kill].  This is the
  // post-mortem contract: no matter where the crash landed, the last
  // seconds are reconstructable. ----
  {
    const obs::FlightDump box =
        obs::FlightRecorder::read_file(dir + "/flight.bin");
    ASSERT_TRUE(box.ok) << "kill " << kill << ": black box unreadable: "
                        << box.error;
    ASSERT_FALSE(box.frames.empty())
        << "kill " << kill << ": black box empty (open marker missing)";
    std::uint64_t prev_seq = 0;
    for (const obs::FlightFrame& f : box.frames) {
      if (prev_seq != 0) {
        ASSERT_EQ(f.seq, prev_seq + 1)
            << "kill " << kill << ": seq gap in black box";
      }
      prev_seq = f.seq;
      ASSERT_GE(f.ts_ns, t_open) << "kill " << kill << ": frame predates open";
      ASSERT_LE(f.ts_ns, kill_ns) << "kill " << kill << ": frame after kill";
    }
  }

  // ---- play the kernel: keep a random cut of each unsynced tail.
  // Only the FINAL table's streams are live at the crash (old tables
  // closed their streams durably when they were reclaimed), and only
  // those get truncated/corrupted. ----
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> cutoff;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> durable;
  for (const persist::CrashedTail& t : tails) {
    std::uint64_t epoch = 0;
    unsigned shard = 0, seg = 0;
    const std::string base =
        std::filesystem::path(t.segment_path).filename().string();
    ASSERT_TRUE(persist::parse_segment_name(base.c_str(), epoch, shard, seg));
    durable[{epoch, shard}] = t.durable_lsn;
    if (epoch != final_epoch) continue;  // closed durably: leave intact
    const std::uint64_t span = t.written_bytes - t.synced_bytes;
    const std::uint64_t keep = t.synced_bytes + rng.next_bounded(span + 1);
    ASSERT_EQ(::truncate(t.segment_path.c_str(), static_cast<off_t>(keep)), 0);
    std::uint64_t corrupt_rec = ~std::uint64_t{0};  // record index in file
    if (keep > t.synced_bytes + persist::kRecordSize &&
        rng.next_bounded(2) == 0) {
      // Flip one byte of a whole record past the synced boundary
      // (never inside the durable prefix — the kernel persisted that).
      const std::uint64_t first =
          (t.synced_bytes + persist::kRecordSize - 1) / persist::kRecordSize;
      const std::uint64_t last = keep / persist::kRecordSize;  // whole recs
      if (first < last) {
        corrupt_rec = first + rng.next_bounded(last - first);
        const long off = static_cast<long>(
            corrupt_rec * persist::kRecordSize +
            rng.next_bounded(persist::kRecordSize));
        std::FILE* f = std::fopen(t.segment_path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, off, SEEK_SET);
        const int orig = std::fgetc(f);
        std::fseek(f, off, SEEK_SET);
        std::fputc(orig ^ 0x55, f);  // never a no-op flip
        std::fclose(f);
      }
    }
    if (!with_snapshot) {
      // Flavor A: seg 0 holds the stream from LSN 1, so record index i
      // in the file IS LSN i+1 — this cutoff needs no product code.
      ASSERT_EQ(seg, 0u);
      ASSERT_EQ(t.synced_bytes % persist::kRecordSize, 0u);
      ASSERT_EQ(t.synced_bytes / persist::kRecordSize, t.durable_lsn);
      std::uint64_t cut = keep / persist::kRecordSize;
      if (corrupt_rec != ~std::uint64_t{0}) cut = std::min(cut, corrupt_rec);
      cutoff[{epoch, shard}] = cut;
    }
  }
  // Cutoffs for everything else (old epochs always; in flavor B also
  // the tampered streams, where rotation broke the byte<->LSN identity)
  // come from re-reading the mangled directory; the acked floor below
  // stays an independent check either way.
  for (const persist::StreamFiles& sf : persist::list_dir(dir).streams) {
    if (cutoff.count({sf.epoch, sf.shard}) != 0) continue;
    const std::vector<persist::Record> recs = persist::read_stream(sf);
    std::uint64_t last = recs.empty() ? 0 : recs.back().lsn;
    if (sf.epoch == mark_epoch)
      last = std::max(last, mark_floor[sf.shard]);  // snapshot covers these
    cutoff[{sf.epoch, sf.shard}] = last;
  }
  for (const auto& [stream, dlsn] : durable) {
    ASSERT_GE(cutoff[stream], dlsn)
        << "acknowledged-durable records lost on stream e" << stream.first
        << "/s" << stream.second << " (kill " << kill << ")";
  }

  // ---- independent fold of the journal over the surviving prefixes ----
  // A transaction survives all-or-nothing: its COMMIT record must be
  // inside the commit stream's surviving prefix AND every pair inside
  // its shard stream's prefix (a pair's INTENT sits at data-1, so the
  // data LSN clearing the cutoff implies the whole pair is readable).
  // Txns wholly before the snapshot are covered by the dump even when
  // truncation erased their records.
  const auto txn_applied = [&](std::uint64_t id) {
    const TxnMeta& m = txn_meta.at(id);
    if (mark_epoch != 0 && m.epoch < mark_epoch) return true;
    if (m.commit_lsn > cutoff[{m.epoch, 0}]) return false;
    for (std::uint64_t s = 0; s < m.last_pair.size(); ++s)
      if (m.last_pair[s] != 0 && m.last_pair[s] > cutoff[{m.epoch, s}])
        return false;
    return true;
  };
  std::map<std::uint64_t, std::uint64_t> want;
  for (const JournalEntry& e : journal) {
    if (e.txn != 0) {
      // All of a txn's effects fold together or not at all; a recovery
      // that installed a strict subset fails the state diff below.
      if (!txn_applied(e.txn)) continue;
    } else {
      // Epochs older than the snapshot's may have had their files
      // truncated away entirely: the snapshot dump covers them.
      const bool snap_covered = mark_epoch != 0 && e.epoch < mark_epoch;
      if (!snap_covered && e.lsn > cutoff[{e.epoch, e.shard}]) continue;
    }
    if (e.is_remove)
      want.erase(e.key);
    else
      want[e.key] = e.value;
  }

  // ---- reopen and diff ----
  {
    Store<TR> store(oracle_cfg<TR>(dir));
    if (with_resize) {
      ASSERT_EQ(store.shard_count(), 4u);
    }
    std::map<std::uint64_t, std::uint64_t> got;
    store.for_each_unsafe([&](std::uint64_t k, std::uint64_t v) {
      ASSERT_TRUE(got.emplace(k, v).second) << "duplicate key " << k;
    });
    if (got != want) {  // name the diverging keys before the fatal assert
      std::set<std::uint64_t> bad;
      for (const auto& [k, v] : got)
        if (want.count(k) == 0 || want.at(k) != v) {
          bad.insert(k);
          std::fprintf(stderr, "  kill %u: got %llu=%llu (want %s)\n", kill,
                       static_cast<unsigned long long>(k),
                       static_cast<unsigned long long>(v),
                       want.count(k) ? "different value" : "absent");
        }
      for (const auto& [k, v] : want)
        if (got.count(k) == 0) {
          bad.insert(k);
          std::fprintf(stderr, "  kill %u: missing %llu=%llu\n", kill,
                       static_cast<unsigned long long>(k),
                       static_cast<unsigned long long>(v));
        }
      // Full history of each diverging key, with the fold's verdicts.
      for (const JournalEntry& e : journal) {
        if (bad.count(e.key) == 0) continue;
        std::fprintf(stderr,
                     "    e%llu/s%llu lsn=%llu %s key=%llu val=%llu txn=%llu"
                     " cutoff=%llu\n",
                     static_cast<unsigned long long>(e.epoch),
                     static_cast<unsigned long long>(e.shard),
                     static_cast<unsigned long long>(e.lsn),
                     e.is_remove ? "rm " : "put",
                     static_cast<unsigned long long>(e.key),
                     static_cast<unsigned long long>(e.value),
                     static_cast<unsigned long long>(e.txn),
                     static_cast<unsigned long long>(
                         cutoff[{e.epoch, e.shard}]));
        if (e.txn != 0) {
          const TxnMeta& m = txn_meta.at(e.txn);
          std::fprintf(stderr,
                       "      txn %llu: applied=%d epoch=%llu commit=%llu "
                       "pairs={%llu,%llu,%llu,%llu} mark_epoch=%llu\n",
                       static_cast<unsigned long long>(e.txn),
                       txn_applied(e.txn) ? 1 : 0,
                       static_cast<unsigned long long>(m.epoch),
                       static_cast<unsigned long long>(m.commit_lsn),
                       static_cast<unsigned long long>(m.last_pair[0]),
                       static_cast<unsigned long long>(m.last_pair[1]),
                       static_cast<unsigned long long>(m.last_pair[2]),
                       static_cast<unsigned long long>(m.last_pair[3]),
                       static_cast<unsigned long long>(mark_epoch));
        }
      }
    }
    ASSERT_EQ(got, want) << "recovered state diverged at kill " << kill;
    ASSERT_EQ(store.size_unsafe(), want.size());
  }

  // ---- clean close + second reopen: nothing may change further ----
  if (kill % 5 == 0) {
    {
      Store<TR> store(oracle_cfg<TR>(dir));
      store.persist_sync(0);
    }
    Store<TR> store(oracle_cfg<TR>(dir));
    std::map<std::uint64_t, std::uint64_t> got;
    store.for_each_unsafe([&](std::uint64_t k, std::uint64_t v) {
      got.emplace(k, v);
    });
    ASSERT_EQ(got, want) << "state drifted across clean reopen, kill " << kill;
  }
}

template <class TR>
void run_oracle(const char* tag, unsigned kills) {
  // WFE_RECOVERY_DIR pins the scratch root (CI uploads it on failure);
  // default is a throwaway mkdtemp under $TMPDIR.  No RAII here: on a
  // fatal failure the mangled WAL state is deliberately left behind.
  const char* pinned = std::getenv("WFE_RECOVERY_DIR");
  std::string root;
  if (pinned != nullptr) {
    root = pinned;
    std::filesystem::create_directories(root);
  } else {
    std::string tmpl = test::scratch_root() + "/wfe_recovery_XXXXXX";
    root = ::mkdtemp(tmpl.data());
  }
  // WFE_TEST_KILL_START replays a failing kill point in isolation.
  const unsigned start = env_unsigned("WFE_TEST_KILL_START", 0);
  for (unsigned kill = start; kill < start + kills; ++kill) {
    run_kill_point<TR>(kill, root + "/" + tag);
    if (::testing::Test::HasFatalFailure()) {
      // Leave the mangled WAL directory behind for the post-mortem.
      std::fprintf(stderr, "recovery oracle: failing WAL state kept in %s\n",
                   root.c_str());
      return;
    }
  }
  if (pinned == nullptr && !test::ScratchDir::keep()) {
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
  }
}

TEST(RecoveryOracle, HundredRandomizedKillPointsWfe) {
  run_oracle<core::WfeTracker>("wfe", env_unsigned("WFE_TEST_KILLS", 100));
}

TEST(RecoveryOracle, KillPointsHp) {
  run_oracle<reclaim::HpTracker>(
      "hp", std::max(1u, env_unsigned("WFE_TEST_KILLS", 100) / 5));
}

}  // namespace
