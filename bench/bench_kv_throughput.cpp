// Sharded kv-store benchmark: every reclamation scheme through the same
// KV workloads, emitting BENCH_kv.json for the perf trajectory
// (util/json.hpp's shared row format; tools/bench_diff.py gates it).
//
// This is the ROADMAP's production-workload probe: unlike the figure
// benches (one structure, one domain) it exercises per-shard
// reclamation domains, batched retirement, in-place value-cell upserts
// and cross-shard multi-op sessions under mixed traffic.
//
// The bench is one table of modes (registry() below).  A mode is a
// name, a constant sweep and a row emitter: every combination of the
// sweep's axes is one data point, run once per tracker.  All modes share
// one store factory, one prefill, one get/put mix, one closed-loop
// window and one unreclaimed probe.  "threads" is the thread list knob
// where the table says so; every other value is fixed:
//
//   op            shards {1,4,16} x read_pct {50,90} x threads x
//                 mbatch {1,16}; mbatch > 1 makes each op one
//                 multi_get/multi_put span (rows carry no "mode" key)
//   persist       threads x sync {none,batched,always}: the op mix at
//                 read_pct 50 on a WAL-attached 4-shard store
//   txn           threads x txn_width {2,8} x conflict_pct {0,50} x
//                 sync {batched,always}
//   obs_overhead  threads: the mix with metrics off vs on vs off again
//   resize        threads: one online resize from 4 to 16 shards
//   scan          threads x scan_width {64,1024} x upd_pct {0,50}
//   bst_upsert    threads {4} x upsert {inplace,copy} on a bare BST
//   saturation    threads {4}: offered write load {50,100,150,200,300}%
//                 of the probed capacity, controller off and on, goodput
//                 SLO 150 ms, best of 3 windows of max(1 s, seconds)
//
// Environment knobs (the first five mean what they mean in the figure
// harness):
//   WFE_BENCH_SECONDS      seconds per window                (default 0.3)
//   WFE_BENCH_REPEATS      windows per op/persist/txn/bst_upsert point,
//                          and the floor of obs_overhead's 7 rounds
//                                                            (default 1)
//   WFE_BENCH_THREAD_LIST  comma list                        (default "1,2,4,8")
//   WFE_BENCH_PREFILL      keys prefilled                    (default 20000)
//   WFE_BENCH_KEY_RANGE    key range                         (default 40000)
//   WFE_KV_MODES           comma list of modes to run        (default all)
//   WFE_KV_TRACKERS        comma list of tracker names       (default all)
//   WFE_KV_PERSIST_DIR     WAL scratch dir, wiped for every store
//                                                            (default "bench_wal")
//   WFE_KV_JSON            output path                       (default BENCH_kv.json)
//
// The file header records the host, its CPU count, the compiler and
// build type, the modes and trackers that ran and each mode's sweep, so
// a committed file says how to reproduce it.
//
// The transaction sweep ("mode":"txn" rows) drives multi-key
// txn_commit batches — width keys per commit, mostly puts with a
// sprinkle of removes — on a persistent 4-shard store.  conflict_pct is
// the chance each key is drawn from a 64-key hot set shared by all
// threads instead of the full range.  Under sync=always the commit acks
// block until the COMMIT record is durable, so those rows' commit_wait
// percentiles price the group-commit wait a caller pays per
// transaction; batched rows measure the fire-and-forget path.
//
// The resize sweep measures the dip-and-recovery profile of one online
// resize under load, per tracker and thread count: `pre` (steady state
// at 4 shards), `during` (worker 0 triggers resize(16) a third of the
// way into the window and drives the migration, with the other workers
// helping cooperatively whenever they hit a frozen bucket — rows carry
// helped_buckets / help_conflicts), `post` (steady state on the migrated
// store), and `fresh` (a control store CONSTRUCTED at 16 shards) — post
// vs fresh is the recovery headline.
//
// The scan sweep splits the threads into dedicated writers (upd_pct
// percent of them, at least one once upd_pct > 0) hammering put/remove
// over the scanned range and scanners looping bounded range scans from
// random starting points; tools/bench_diff.py compares per-scanner
// keys/s under write load against the upd=0 baseline of the same
// (tracker, width, threads) cell.  The bst_upsert duel runs the
// 50%-update mix straight on a NatarajanBst: the in-place value-cell
// CAS must beat remove+insert on every tracker.
//
// The saturation sweep ("mode":"saturation" rows) is the admission-
// control acceptance probe: a persistent sync=batched store with a
// deliberately small WAL ring is first measured closed-loop (its
// capacity), then driven OPEN-loop at a ramp of offered WRITE loads
// (reads ride along at a constant 10% of capacity, so the
// read-priority contract shows up as flat read goodput while writes
// shed) — each worker follows an intended-arrival schedule at the
// offered rate and never resets it, so queueing delay is charged to
// the op like a real client would experience it (YCSB's "intended"
// latency); a refused slot backs off a few intended arrivals, like a
// rejected client, with the skipped arrivals counted as shed.
// Goodput counts only ops that complete within the SLO of their
// scheduled arrival; the SLO is 150 ms because on a small shared host a
// scheduler time-slice alone is tens of ms.  Every point runs twice,
// controller off vs on (KvConfig::admission): without admission, past
// the knee the schedule falls behind without bound and goodput
// collapses to ~0 even though raw throughput stays flat; with admission
// the excess is shed at the front door (kv::Overloaded, counted in
// shed_rate) and the admitted ops keep meeting the SLO.
// tools/bench_diff.py gates on exactly that: controller-on goodput at
// >=2x capacity must hold near its at-capacity-and-beyond peak while
// controller-off collapses.  Each point keeps the best of 3 windows
// (max goodput), each on a fresh store so heap growth (Leak) cannot
// compound: a single window measures scheduler luck as much as the
// store — a descheduled worker set reads as a goodput dip the gate
// cannot tell from a real collapse.  The window is at least 1 s because
// the admission law needs a few sampler periods to converge.
//
// The non-read half of the mix is ALWAYS an upsert over the full key
// range, so at the default prefill (half the range) a write replaces a
// present key about half the time: read_pct=50 is the "50%-update
// mix".

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/wfe.hpp"
#include "core/wfe_ibr.hpp"
#include "ds/natarajan_bst.hpp"
#include "harness/runner.hpp"
#include "kv/kv_store.hpp"
#include "obs/registry.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/he.hpp"
#include "reclaim/hp.hpp"
#include "reclaim/ibr.hpp"
#include "reclaim/leak.hpp"
#include "reclaim/qsbr.hpp"
#include "txn/txn.hpp"
#include "util/json.hpp"

namespace {

using namespace wfe;

template <class TR>
using Store = kv::KvStore<std::uint64_t, std::uint64_t, TR>;

/// What the environment chose (see the file header).
struct Knobs {
  double seconds;
  unsigned repeats;
  std::uint64_t prefill;  ///< clamped to key_range
  std::uint64_t key_range;
  std::vector<unsigned> threads;
  std::string persist_dir;
};

constexpr unsigned kRetireBatch = 8;   // per-thread retire burst size
constexpr unsigned kShards = 4;        // every mode but op and resize
constexpr unsigned kMixReadPct = 50;   // the "50%-update mix"
constexpr unsigned kResizeFrom = 4, kResizeTo = 16;
constexpr unsigned kSatBatch = 16;     // keys per saturation slot
constexpr unsigned kSatReadPct = 10;   // write-heavy: overload feeds the WAL
constexpr unsigned kSatSloMs = 150;
constexpr unsigned kSatRepeats = 3;
const std::vector<unsigned> kSatRatioPct = {50, 100, 150, 200, 300};
/// Indexed by persist::SyncMode.
const std::vector<const char*> kSyncNames = {"none", "batched", "always"};

/// One sweep axis.  When `labels` is set the values index it, and the
/// file header shows the labels.
struct Axis {
  const char* name;
  std::vector<unsigned> values;
  std::vector<const char*> labels = {};
};

/// One data point: a value of every axis, in the mode's axis order.
using Point = std::vector<unsigned>;

struct Mode {
  const char* name;
  std::vector<Axis> axes;   ///< every combination is one data point
  std::vector<Axis> fixed;  ///< constants the rows depend on (header only)
  /// Runs one data point for one tracker and appends its rows.
  void (*point)(const Knobs&, const Point&, util::JsonWriter&);
};

/// Every scheme in the repo: the paper's comparison set plus the
/// extensions (WFE-IBR, QSBR) — "all trackers" per the kv test matrix.
template <class Fn>
void for_each_kv_tracker(Fn&& fn) {
  fn.template operator()<core::WfeTracker>();
  fn.template operator()<core::WfeIbrTracker>();
  fn.template operator()<reclaim::EbrTracker>();
  fn.template operator()<reclaim::HeTracker>();
  fn.template operator()<reclaim::HpTracker>();
  fn.template operator()<reclaim::IbrTracker>();
  fn.template operator()<reclaim::QsbrTracker>();
  fn.template operator()<reclaim::LeakTracker>();
}

// ---- the shared core ----

/// Inserts k.prefill distinct keys from a fixed seed, so every store of
/// a sweep starts from the same set.  Works on a bare BST too.
template <class DS>
void prefill(DS& ds, const Knobs& k) {
  util::Xoshiro256 rng(42);
  std::uint64_t inserted = 0;
  while (inserted < k.prefill) {
    try {
      inserted += ds.insert(rng.next_bounded(k.key_range) + 1, inserted, 0) ? 1 : 0;
    } catch (const kv::Overloaded&) {
      // Single-thread prefill can outrun a freshly started admission law.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

/// A prefilled store of `shards` shards for `threads` workers, metrics on
/// with the sampler off (latency columns come from the op histograms, so
/// the only cost in the window is the per-op probe itself).  `tweak`
/// edits the config last; a WAL directory is wiped first, so recovery
/// replay never pollutes a window.
template <class TR, class Tweak>
std::unique_ptr<Store<TR>> make_store(const Knobs& k, unsigned threads,
                                      unsigned shards, Tweak&& tweak) {
  kv::KvConfig cfg;
  cfg.shards = shards;
  // Hold total bucket count roughly constant across shard counts so the
  // sweep isolates domain partitioning, not table size.
  cfg.buckets_per_shard = std::max<std::size_t>(64, 4096 / std::max(1u, shards));
  cfg.tracker.max_threads = threads;
  cfg.tracker.max_hes = Store<TR>::kSlotsNeeded;
  cfg.tracker.retire_batch = kRetireBatch;
  cfg.metrics.enabled = true;
  cfg.metrics.sampler = false;
  tweak(cfg);
  if (cfg.persistence.enabled) std::filesystem::remove_all(cfg.persistence.dir);
  auto s = std::make_unique<Store<TR>>(cfg);
  prefill(*s, k);
  return s;
}

/// Tweak attaching a WAL in `dir` with the given sync mode.
auto wal(const std::string& dir, unsigned sync) {
  return [&dir, sync](kv::KvConfig& c) {
    c.persistence.enabled = true;
    c.persistence.dir = dir;
    c.persistence.sync = static_cast<persist::SyncMode>(sync);
  };
}

/// One op of the shared mix over the full key range: a read with
/// probability read_bp / 10000 (basis points), else an in-place upsert.
/// mbatch > 1 makes the op one multi_get / multi_put span of that many
/// keys routed through the cross-shard batching API.
template <class TR>
void mix_step(Store<TR>& s, std::uint64_t key_range, util::Xoshiro256& rng,
              unsigned tid, unsigned read_bp, unsigned mbatch) {
  const bool read = rng.next_bounded(10000) < read_bp;
  if (mbatch <= 1) {
    const std::uint64_t key = rng.next_bounded(key_range) + 1;
    if (read)
      s.get(key, tid);
    else
      s.put(key, key, tid);
    return;
  }
  static thread_local std::vector<std::uint64_t> keys;
  static thread_local std::vector<std::optional<std::uint64_t>> out;
  static thread_local std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
  keys.resize(mbatch);
  for (auto& key : keys) key = rng.next_bounded(key_range) + 1;
  if (read) {
    out.resize(mbatch);
    s.multi_get(keys.data(), mbatch, out.data(), tid);
  } else {
    pairs.clear();
    for (const std::uint64_t key : keys) pairs.emplace_back(key, key);
    s.multi_put(pairs.data(), mbatch, tid);
  }
}

/// One closed-loop window: `op(rng, tid)` on `threads` workers for
/// `seconds`, `repeats` times, sampling `probe()` while the clock runs.
template <class Op, class Probe>
harness::RunResult window(unsigned threads, double seconds, unsigned repeats,
                          Op&& op, Probe&& probe) {
  return harness::run_timed(harness::RunConfig{threads, seconds, repeats}, op,
                            probe);
}

constexpr auto kNoProbe = [] { return std::uint64_t{0}; };

/// The paper's memory metric: blocks retired but not yet freed, summed
/// across the store's domains, batch buffers included.
template <class TR>
std::uint64_t unreclaimed(Store<TR>& s) {
  std::uint64_t u = 0;
  for (const auto& sh : s.stats().shards) u += sh.unreclaimed + sh.pending_retired;
  return u;
}

/// Opens a row with the columns every row carries.  Op rows (the
/// original sweep) have no "mode" key: pass nullptr.
template <class TR>
void begin_row(util::JsonWriter& j, const char* mode, unsigned threads) {
  j.begin_object();
  j.kv("tracker", TR::name());
  if (mode != nullptr) j.kv("mode", mode);
  j.kv("threads", threads);
}

/// Emits `<prefix>_{p50,p99,p999,max}_ns` columns for the named
/// histogram of `snap` (zeros when the histogram never recorded).
void emit_latency_cols(util::JsonWriter& j, const obs::RegistrySnapshot& snap,
                       const char* hist_name, const char* prefix) {
  obs::HistogramSummary none;
  const auto it = std::find_if(snap.histograms.begin(), snap.histograms.end(),
                               [&](const auto& h) { return h.name == hist_name; });
  const obs::HistogramSummary& h = it == snap.histograms.end() ? none : *it;
  const std::string p(prefix);
  j.kv((p + "_p50_ns").c_str(), h.p50_ns);
  j.kv((p + "_p99_ns").c_str(), h.p99_ns);
  j.kv((p + "_p999_ns").c_str(), h.p999_ns);
  j.kv((p + "_max_ns").c_str(), h.max_ns);
}

// ---- row emitters, one per mode ----

/// The mix on a prefilled store: one window, one row.  Op rows
/// (sync == nullptr) carry the batching columns, persist rows the WAL's.
template <class TR>
void mix_row(const Knobs& k, util::JsonWriter& j, Store<TR>& s,
             unsigned read_pct, unsigned threads, unsigned mbatch,
             const char* sync) {
  const harness::RunResult r = window(
      threads, k.seconds, k.repeats,
      [&](util::Xoshiro256& rng, unsigned tid) {
        mix_step(s, k.key_range, rng, tid, read_pct * 100, mbatch);
      },
      [&] { return unreclaimed(s); });
  // run_timed counts lambda calls; one call covers mbatch key-ops.
  const double mops = r.mops * mbatch;
  const kv::ShardStats tot = s.stats().total();
  begin_row<TR>(j, sync ? "persist" : nullptr, threads);
  if (sync) j.kv("sync", sync);
  // The effective (power-of-two-rounded) shard count.
  j.kv("shards", static_cast<std::uint64_t>(s.shard_count()));
  j.kv("read_pct", read_pct);
  j.kv("retire_batch", kRetireBatch);
  j.kv("upsert", "inplace");
  if (!sync) j.kv("mbatch", mbatch);
  j.kv("mops", mops);
  j.kv("mops_stddev", r.mops_stddev * mbatch);
  j.kv("avg_unreclaimed", r.avg_unreclaimed);
  j.kv("ops", tot.ops());
  j.kv("retired", tot.retired);
  if (sync) {
    // Max over streams of the appended-durable gap.
    j.kv("wal_durable_lag", tot.wal_durable_lag);
    j.kv("wal_fsyncs", tot.wal_fsyncs);
  } else {
    j.kv("batch_flushes", tot.batch_flushes);
    j.kv("slow_path_entries", tot.slow_path_entries);
    j.kv("value_cell_retires", tot.value_cell_retires);
    j.kv("batched_ops", tot.batched_ops);
  }
  // Retire backlog at the end of the window: queued on the domains'
  // retire lists vs still buffered in the batch adapters.
  j.kv("retire_backlog", tot.retire_backlog);
  j.kv("pending_retired", tot.pending_retired);
  // End-to-end per-op latency percentiles (prefill included in the
  // counts but dwarfed by the measured window).
  const obs::RegistrySnapshot snap = s.metrics()->registry.snapshot();
  if (mbatch <= 1) {
    emit_latency_cols(j, snap, "kv_op_get_ns", "get");
    emit_latency_cols(j, snap, "kv_op_put_ns", "put");
  } else {
    // One multi record covers a whole mbatch-key span.
    emit_latency_cols(j, snap, "kv_op_multi_ns", "multi");
  }
  if (sync) {
    emit_latency_cols(j, snap, "kv_wal_fsync_ns", "fsync");
    emit_latency_cols(j, snap, "kv_wal_commit_wait_ns", "commit_wait");
  }
  j.end_object();
}

/// Point: shards, read_pct, threads, mbatch.
template <class TR>
void op_point(const Knobs& k, const Point& p, util::JsonWriter& j) {
  auto s = make_store<TR>(k, p[2], p[0], [](kv::KvConfig&) {});
  mix_row(k, j, *s, p[1], p[2], p[3], nullptr);
}

/// Point: threads, sync.
template <class TR>
void persist_point(const Knobs& k, const Point& p, util::JsonWriter& j) {
  auto s = make_store<TR>(k, p[0], kShards, wal(k.persist_dir, p[1]));
  mix_row(k, j, *s, kMixReadPct, p[0], 1, kSyncNames[p[1]]);
}

/// Point: threads, txn_width, conflict_pct, sync.  Each harness op
/// commits one transaction of txn_width keys, 7/8 puts and 1/8 removes.
template <class TR>
void txn_point(const Knobs& k, const Point& p, util::JsonWriter& j) {
  const unsigned threads = p[0], width = p[1], conflict_pct = p[2];
  auto s = make_store<TR>(k, threads, kShards, wal(k.persist_dir, p[3]));
  const harness::RunResult r = window(
      threads, k.seconds, k.repeats,
      [&](util::Xoshiro256& rng, unsigned tid) {
        static thread_local txn::Txn<std::uint64_t, std::uint64_t> t;
        t.clear();
        for (unsigned i = 0; i < width; ++i) {
          const std::uint64_t key = rng.percent(conflict_pct)
                                        ? rng.next_bounded(64) + 1
                                        : rng.next_bounded(k.key_range) + 1;
          if (rng.percent(12))
            t.remove(key);
          else
            t.put(key, key);
        }
        s->txn_commit(t, tid);
      },
      [&] { return unreclaimed(*s); });
  // run_timed counts commits; key-ops scale with the width.
  const double key_mops = r.mops * width;
  const kv::KvStats st = s->stats();
  const kv::ShardStats tot = st.total();
  begin_row<TR>(j, "txn", threads);
  j.kv("sync", kSyncNames[p[3]]);
  j.kv("txn_width", width);
  j.kv("conflict_pct", conflict_pct);
  j.kv("shards", static_cast<std::uint64_t>(s->shard_count()));
  j.kv("retire_batch", kRetireBatch);
  j.kv("mops", r.mops);
  j.kv("mops_stddev", r.mops_stddev);
  j.kv("key_mops", key_mops);
  j.kv("avg_unreclaimed", r.avg_unreclaimed);
  j.kv("txn_commits", st.txn_commits);
  j.kv("txn_ops", tot.txn_ops);
  j.kv("wal_durable_lag", tot.wal_durable_lag);
  j.kv("wal_fsyncs", tot.wal_fsyncs);
  const obs::RegistrySnapshot snap = s->metrics()->registry.snapshot();
  // txn_commit records end-to-end into the multi-op histogram.
  emit_latency_cols(j, snap, "kv_op_multi_ns", "commit");
  emit_latency_cols(j, snap, "kv_wal_commit_wait_ns", "commit_wait");
  emit_latency_cols(j, snap, "kv_wal_fsync_ns", "fsync");
  j.end_object();
}

/// Point: threads.  The mix on identical stores with metrics off vs on
/// (every probe live); the row carries both throughputs and their ratio,
/// and the gate compares within the row (same run, same host).
template <class TR>
void obs_point(const Knobs& k, const Point& p, util::JsonWriter& j) {
  const unsigned threads = p[0];
  const auto make = [&](bool on) {
    return make_store<TR>(k, threads, kShards, [on](kv::KvConfig& c) {
      c.metrics.enabled = on;
      if (on) {
        // The A/A gate must price the FULL obs stack: flight recorder
        // (explicit path — no persist dir here) and watchdog included.
        // Heartbeats are episode-counter stores, traces only tee on slow
        // ops, so "on" staying within budget is exactly the claim.
        c.metrics.flight = true;
        c.metrics.flight_path = "BENCH_flight.bin";
        c.metrics.watchdog.enabled = true;
      }
    });
  };
  const auto measure = [&](Store<TR>& s) {
    const auto op = [&](util::Xoshiro256& rng, unsigned tid) {
      mix_step(s, k.key_range, rng, tid, kMixReadPct * 100, 1);
    };
    return window(threads, k.seconds, 1, op, kNoProbe).mops;
  };
  // Three long-lived stores in strictly alternating windows: metrics
  // off, metrics on, and a SECOND metrics-off control.  Scheduler and
  // frequency drift land on every side equally, and the control's
  // off2/off ratio is the same-run A/A noise floor — on a 1-CPU host the
  // floor routinely exceeds the probe's true cost (~3ns/op sampled at
  // 1/16, microbenched), so the gate judges on_off against aa, not
  // against 1.0.  The first (discarded) round warms all three up.
  auto off = make(false);
  auto on = make(true);
  auto off2 = make(false);
  for (Store<TR>* s : {off.get(), on.get(), off2.get()}) (void)measure(*s);
  // Median of per-round paired ratios: each round's windows are
  // temporally adjacent, and the median sheds the windows an IRQ burst
  // landed on.
  const unsigned rounds = std::max(k.repeats, 7u);
  std::vector<double> ratios, aa_ratios;
  double off_sum = 0, on_sum = 0;
  for (unsigned i = 0; i < rounds; ++i) {
    const double o = measure(*off);
    const double n = measure(*on);
    const double o2 = measure(*off2);
    off_sum += o;
    on_sum += n;
    ratios.push_back(o > 0 ? n / o : 1.0);
    aa_ratios.push_back(o > 0 ? o2 / o : 1.0);
  }
  std::sort(ratios.begin(), ratios.end());
  std::sort(aa_ratios.begin(), aa_ratios.end());
  const double ratio = ratios[ratios.size() / 2];
  const double aa = aa_ratios[aa_ratios.size() / 2];
  begin_row<TR>(j, "obs_overhead", threads);
  j.kv("read_pct", kMixReadPct);
  j.kv("shards", kShards);
  j.kv("mops_metrics_off", off_sum / rounds);
  j.kv("mops_metrics_on", on_sum / rounds);
  j.kv("on_off_ratio", ratio);
  j.kv("aa_ratio", aa);
  j.end_object();
}

/// Point: threads.  The dip-and-recovery profile of one online resize
/// (see the file header); metrics off, so the windows price the store.
template <class TR>
void resize_point(const Knobs& k, const Point& p, util::JsonWriter& j) {
  const unsigned threads = p[0];
  const auto make = [&](unsigned shards) {
    return make_store<TR>(k, threads, shards,
                          [](kv::KvConfig& c) { c.metrics.enabled = false; });
  };
  // One window of the mix; with `mid_resize`, worker 0 triggers the
  // resize a third of the way in and runs the migration inline.
  const auto measure = [&](Store<TR>& s, bool mid_resize) {
    std::atomic<bool> resized{false};
    const auto trigger = std::chrono::steady_clock::now() +
                         std::chrono::duration<double>(k.seconds / 3.0);
    const auto op = [&](util::Xoshiro256& rng, unsigned tid) {
      if (mid_resize && tid == 0 && !resized.load(std::memory_order_relaxed) &&
          std::chrono::steady_clock::now() >= trigger) {
        resized.store(true, std::memory_order_relaxed);
        s.resize(kResizeTo, tid);
        return;
      }
      mix_step(s, k.key_range, rng, tid, kMixReadPct * 100, 1);
    };
    return window(threads, k.seconds, 1, op, [&] { return unreclaimed(s); }).mops;
  };
  auto s = make(kResizeFrom);
  const double pre = measure(*s, false);
  const double during = measure(*s, true);
  const double post = measure(*s, false);
  const double fresh = measure(*make(kResizeTo), false);
  const kv::KvStats st = s->stats();
  begin_row<TR>(j, "resize", threads);
  j.kv("read_pct", kMixReadPct);
  j.kv("from_shards", static_cast<std::uint64_t>(
                          st.resizes.empty() ? kResizeFrom
                                             : st.resizes[0].from_shards));
  j.kv("to_shards", static_cast<std::uint64_t>(st.shard_count));
  j.kv("pre_mops", pre);
  j.kv("during_mops", during);
  j.kv("post_mops", post);
  j.kv("fresh_mops", fresh);
  j.kv("migrated_keys", st.migrated_keys);
  j.kv("forwarded_ops", st.forwarded_ops);
  j.kv("helped_buckets", st.helped_buckets);
  j.kv("help_conflicts", st.help_conflicts);
  j.kv("resize_epochs", st.resize_epochs);
  j.key("resizes").begin_array();
  for (const auto& r : st.resizes) to_json(j, r);
  j.end_array();
  j.end_object();
}

/// Point: threads, scan_width, upd_pct.  Ordered index on; threads
/// [0, writers) write, the rest scan (see the file header).
template <class TR>
void scan_point(const Knobs& k, const Point& p, util::JsonWriter& j) {
  const unsigned threads = p[0], width = p[1], upd_pct = p[2];
  const unsigned writers =
      upd_pct == 0 ? 0
                   : std::min(threads - 1, std::max(1u, threads * upd_pct / 100));
  const unsigned scanners = threads - writers;
  // A loaded point needs at least one of each role; threads=1 can only
  // produce the baseline row.
  if (scanners == 0 || (upd_pct > 0 && writers == 0) || width >= k.key_range)
    return;
  auto s = make_store<TR>(k, threads, kShards,
                          [](kv::KvConfig& c) { c.ordered_index = true; });
  std::vector<std::uint64_t> keys_seen(threads, 0), scans_done(threads, 0),
      write_ops(threads, 0);
  const harness::RunResult r = window(
      threads, k.seconds, 1,
      [&](util::Xoshiro256& rng, unsigned t) {
        if (t < writers) {
          const std::uint64_t key = rng.next_bounded(k.key_range) + 1;
          if (rng.percent(50))
            s->put(key, key, t);
          else
            s->remove(key, t);
          ++write_ops[t];
        } else {
          const std::uint64_t lo = rng.next_bounded(k.key_range - width) + 1;
          keys_seen[t] += s->scan(
              lo, lo + width - 1,
              [](std::uint64_t, const std::uint64_t&) { return true; }, t);
          ++scans_done[t];
        }
      },
      kNoProbe);
  const auto keys = std::accumulate(keys_seen.begin(), keys_seen.end(), 0ull);
  const auto scans = std::accumulate(scans_done.begin(), scans_done.end(), 0ull);
  const auto wops = std::accumulate(write_ops.begin(), write_ops.end(), 0ull);
  // Every harness op was one scan or one write, so the op rate recovers
  // the measured window length.
  const double elapsed = (scans + wops) / (r.mops * 1e6);
  const double keys_per_sec = keys / elapsed;
  const kv::KvStats st = s->stats();
  begin_row<TR>(j, "scan", threads);
  j.kv("scan_width", width);
  j.kv("upd_pct", upd_pct);
  j.kv("writers", writers);
  j.kv("scanners", scanners);
  j.kv("keys_per_sec", keys_per_sec);
  j.kv("keys_per_scanner_sec", keys_per_sec / scanners);
  j.kv("scans_per_sec", scans / elapsed);
  j.kv("scan_ops", st.scan_ops);
  j.kv("scan_keys", st.scan_keys);
  j.kv("scan_restarts", st.scan_restarts);
  j.kv("writer_mops", wops / elapsed / 1e6);
  emit_latency_cols(j, s->metrics()->registry.snapshot(), "kv_op_scan_ns", "scan");
  j.end_object();
}

/// Point: threads, upsert (1 = in-place value-cell CAS, 0 = whole-leaf
/// remove+insert).  The 50%-update mix straight on a NatarajanBst.
template <class TR>
void bst_point(const Knobs& k, const Point& p, util::JsonWriter& j) {
  using Bst = ds::NatarajanBst<std::uint64_t, TR>;
  const unsigned threads = p[0];
  const bool inplace = p[1] != 0;
  reclaim::TrackerConfig tcfg;
  tcfg.max_threads = threads;
  tcfg.max_hes = Bst::kSlotsNeeded;
  tcfg.retire_batch = kRetireBatch;
  TR tracker(tcfg);
  Bst bst(tracker);
  prefill(bst, k);
  const harness::RunResult r = window(
      threads, k.seconds, k.repeats,
      [&](util::Xoshiro256& rng, unsigned tid) {
        const std::uint64_t key = rng.next_bounded(k.key_range) + 1;
        if (rng.percent(kMixReadPct))
          bst.get(key, tid);
        else if (inplace)
          bst.put(key, key, tid);
        else
          bst.put_copy(key, key, tid);
      },
      [&] { return tracker.unreclaimed(); });
  begin_row<TR>(j, "bst_upsert", threads);
  j.kv("read_pct", kMixReadPct);
  j.kv("upsert", inplace ? "inplace" : "copy");
  j.kv("mops", r.mops);
  j.kv("mops_stddev", r.mops_stddev);
  j.kv("avg_unreclaimed", r.avg_unreclaimed);
  j.end_object();
}

/// Point: threads.  Measured capacity, then the open-loop offered-load
/// ramp with the admission controller off vs on (see the file header).
template <class TR>
void saturation_point(const Knobs& k, const Point& p, util::JsonWriter& j) {
  const unsigned threads = p[0];
  const double seconds = std::max(1.0, k.seconds);
  const double slo_ns = kSatSloMs * 1e6;

  // Measured by the closed-loop probe below before any admission store
  // is constructed; the controller-on config derives its rate from it.
  double cap_slots = 1.0;

  const auto make = [&](bool admit_on) {
    return make_store<TR>(k, threads, kShards, [&](kv::KvConfig& c) {
      wal(k.persist_dir, static_cast<unsigned>(persist::SyncMode::kBatched))(c);
      // Small ring so saturation is reachable inside a short window; the
      // controller-off rows then carry real wait_ring_space episodes
      // (wal_backpressure_waits).
      c.persistence.ring_capacity = 512;
      if (!admit_on) return;
      c.admission.enabled = true;  // turns the sampler back on
      c.metrics.sample_interval_ms = 20;  // the law needs a live feed
      c.admission.tick_ms = 5;
      // Cap the token rate at half the write-token share of the probed
      // capacity (a write slot costs kSatBatch tokens): the smooth per-op
      // bucket, not the all-or-nothing shed flag, is then the binding
      // mechanism at every overload ratio.  Half, not "just under",
      // because an overloaded open-loop worker must burn through its
      // backlog of scheduled slots faster than they arrive — each
      // admitted slot costs full service time, so keeping the schedule
      // live at ratio R needs a shed fraction >= 1 - 1/R plus real
      // headroom (R=3 with this mix needs >2/3 shed).  In production
      // this cap is the provisioned rate; here the probe measured it.
      c.admission.max_write_rate = std::max(
          1e4, 0.5 * cap_slots * (100 - kSatReadPct) / 100.0 * kSatBatch);
      // Burst sized to ride through a scheduler stall: on a 1-vCPU
      // host all workers can be off-CPU for 100ms+ at a time, and with
      // a small bucket every token refilled after it clamps full is
      // lost — which reads as a goodput dip the gate can't tell from a
      // real collapse.  A quarter-second bucket absorbs the stall and
      // the behind-schedule workers drain it on wakeup, inside the SLO.
      c.admission.burst_seconds = 0.25;
      // Mild: the static cap provides the headroom; the law underneath
      // only trims on a genuinely backed-up ring.
      c.admission.wal_lag_target = 384;  // vs ring_capacity 512
      // The retire backlog is NOT a signal in this sweep: the Leak
      // baseline never reclaims, so its backlog grows without bound by
      // design and would pin severity at max regardless of load.
      c.admission.retire_backlog_target = 1e12;
      // Emergency brakes only — the severity law stays live underneath
      // the static cap for transients (a mispredicted probe, a stalled
      // flusher), but routine overload must be absorbed by the bucket.
      c.admission.shed_write_severity = 8.0;
      c.admission.shed_read_severity = 32.0;
      // This sweep's callers pace themselves; a dry bucket should shed
      // instantly, not park the worker for the default wait.
      c.admission.max_wait_us = 0;
    });
  };

  struct SatCounts {
    std::uint64_t good = 0, late = 0, shed_w = 0, shed_r = 0;
  };

  // Closed-loop capacity probe (controller off, so nothing is shed): the
  // knee the ramp is scaled against.
  {
    auto s = make(false);
    const harness::RunResult r = window(
        threads, seconds, 1,
        [&](util::Xoshiro256& rng, unsigned tid) {
          mix_step(*s, k.key_range, rng, tid, kSatReadPct * 100, kSatBatch);
        },
        kNoProbe);
    cap_slots = std::max(1.0, r.mops * 1e6);  // lambda calls = slots
  }

  // Open-loop window: each worker owns an intended-arrival schedule at
  // the offered rate and NEVER resets it — when the store can't keep
  // up the schedule runs ahead and every completion is charged the
  // queueing delay a real client would see.  The RAMP scales only the
  // write stream; reads ride along at a constant 10% of capacity in
  // every window.  A refused slot backs off kShedBackoff intended
  // arrivals (a rejected client retries after a backoff, it does not
  // hammer the front door every period — and concurrent exception
  // unwinds serialize in the runtime, so per-arrival rejection would
  // throttle the *client*, not the store); the skipped arrivals count
  // as shed.
  const auto paced = [&](Store<TR>& s, double offered_slots, unsigned read_bp) {
    // Each refusal costs an exception unwind, and concurrent unwinds
    // serialize in the runtime — on a 1-vCPU host a too-eager retry
    // cadence at 3x overload steals whole cores' worth of time from
    // the store and the WAL flusher.  32 periods is still < 1ms at
    // these rates, and the quarter-second bucket means no token
    // refilled during the skip is ever lost.
    constexpr std::uint64_t kShedBackoff = 32;
    std::vector<SatCounts> counts(threads);
    const auto t0 = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(10);  // common start line
    const auto tend =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(seconds));
    const double per_thread = std::max(1.0, offered_slots / threads);
    const auto period = std::chrono::nanoseconds(
        static_cast<std::int64_t>(std::llround(1e9 / per_thread)));
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
      workers.emplace_back([&, t] {
        util::Xoshiro256 rng(0x5a70000 + 77 * t);
        SatCounts& c = counts[t];
        auto next = t0 + (period * t) / threads;  // stagger arrivals
        while (std::chrono::steady_clock::now() < tend) {
          if (next > std::chrono::steady_clock::now())
            std::this_thread::sleep_until(next);
          // One slot = a kSatBatch-key multi-op of the shared mix.
          try {
            mix_step(s, k.key_range, rng, t, read_bp, kSatBatch);
          } catch (const kv::Overloaded& o) {
            // The whole batch was shed at the front door: back off,
            // charging the refused slot and the skipped arrivals to the
            // stream that was refused.
            (o.write ? c.shed_w : c.shed_r) += kShedBackoff;
            next += period * kShedBackoff;
            continue;
          }
          const auto lat = std::chrono::steady_clock::now() - next;
          if (std::chrono::duration<double, std::nano>(lat).count() <= slo_ns)
            ++c.good;
          else
            ++c.late;
          next += period;
        }
      });
    for (auto& w : workers) w.join();
    SatCounts tot;
    for (const SatCounts& c : counts) {
      tot.good += c.good;
      tot.late += c.late;
      tot.shed_w += c.shed_w;
      tot.shed_r += c.shed_r;
    }
    return tot;
  };

  for (const unsigned ratio_pct : kSatRatioPct) {
    const double ratio = ratio_pct / 100.0;
    // Write stream scaled by the ratio, constant background reads.
    const double write_slots = cap_slots * (100 - kSatReadPct) / 100.0 * ratio;
    const double read_slots = cap_slots * kSatReadPct / 100.0;
    const double offered_slots = write_slots + read_slots;
    const unsigned read_bp = static_cast<unsigned>(
        10000.0 * read_slots / std::max(1.0, offered_slots));
    for (const bool admit_on : {false, true}) {
      // Best of kSatRepeats windows, a fresh store each time: the max
      // goodput estimates the stall-free value of the point.
      SatCounts c;
      kv::KvStats st;
      obs::RegistrySnapshot snap;
      for (unsigned rep = 0; rep < kSatRepeats; ++rep) {
        auto s = make(admit_on);
        const SatCounts cr = paced(*s, offered_slots, read_bp);
        if (rep == 0 || cr.good > c.good) {
          c = cr;
          st = s->stats();
          snap = s->metrics()->registry.snapshot();
        }
      }
      const std::uint64_t attempted = c.good + c.late + c.shed_w + c.shed_r;
      const double goodput_mops = c.good * kSatBatch / seconds / 1e6;
      const double shed_rate =
          attempted == 0 ? 0.0
                         : static_cast<double>(c.shed_w + c.shed_r) / attempted;
      const kv::ShardStats tot = st.total();
      begin_row<TR>(j, "saturation", threads);
      j.kv("controller", admit_on ? "on" : "off");
      j.kv("sync", "batched");
      j.kv("batch", kSatBatch);
      j.kv("read_pct", kSatReadPct);
      j.kv("slo_ms", kSatSloMs);
      j.kv("capacity_mops", cap_slots * kSatBatch / 1e6);
      j.kv("offered_ratio", ratio);
      j.kv("offered_mops", offered_slots * kSatBatch / 1e6);
      j.kv("goodput_mops", goodput_mops);
      j.kv("attempted_mops", attempted * kSatBatch / seconds / 1e6);
      j.kv("late_mops", c.late * kSatBatch / seconds / 1e6);
      j.kv("shed_rate", shed_rate);
      j.kv("good_slots", c.good);
      j.kv("late_slots", c.late);
      j.kv("shed_write_slots", c.shed_w);
      j.kv("shed_read_slots", c.shed_r);
      j.kv("wal_durable_lag", tot.wal_durable_lag);
      j.kv("wal_backpressure_waits", tot.wal_backpressure_waits);
      j.kv("retire_backlog", tot.retire_backlog);
      j.kv("admit_write_rate", st.admit_write_rate);
      j.kv("admit_severity", st.admit_severity);
      j.kv("admit_shed_writes", st.admit_shed_writes);
      j.kv("admit_shed_reads", st.admit_shed_reads);
      j.kv("admit_throttle_waits", st.admit_throttle_waits);
      emit_latency_cols(j, snap, "kv_op_multi_ns", "multi");
      j.end_object();
    }
  }
}

// ---- the mode table ----

/// Every mode, in run order.  The sweeps do not depend on TR; it only
/// picks the row emitters' instantiation.
template <class TR>
std::vector<Mode> registry(const Knobs& k) {
  const Axis threads{"threads", k.threads};
  const Axis four_threads{"threads", {4}};
  const Axis shards{"shards", {kShards}};
  const Axis mix_read{"read_pct", {kMixReadPct}};
  const auto sat_window_ms =
      static_cast<unsigned>(std::lround(1000 * std::max(1.0, k.seconds)));
  return {
      {"op",
       {{"shards", {1, 4, 16}}, {"read_pct", {50, 90}}, threads, {"mbatch", {1, 16}}},
       {}, op_point<TR>},
      {"persist", {threads, {"sync", {0, 1, 2}, kSyncNames}}, {shards, mix_read},
       persist_point<TR>},
      {"txn", {threads, {"txn_width", {2, 8}}, {"conflict_pct", {0, 50}},
               {"sync", {1, 2}, kSyncNames}},
       {shards}, txn_point<TR>},
      {"obs_overhead", {threads}, {shards, mix_read}, obs_point<TR>},
      {"resize", {threads},
       {{"from_shards", {kResizeFrom}}, {"to_shards", {kResizeTo}}, mix_read},
       resize_point<TR>},
      {"scan", {threads, {"scan_width", {64, 1024}}, {"upd_pct", {0, 50}}}, {shards},
       scan_point<TR>},
      {"bst_upsert", {four_threads, {"upsert", {1, 0}, {"copy", "inplace"}}}, {mix_read},
       bst_point<TR>},
      {"saturation", {four_threads},
       {shards, {"offered_ratio_pct", kSatRatioPct}, {"read_pct", {kSatReadPct}},
        {"batch", {kSatBatch}}, {"slo_ms", {kSatSloMs}}, {"repeats", {kSatRepeats}},
        {"window_ms", {sat_window_ms}}},
       saturation_point<TR>},
  };
}

/// Calls fn(point) for every combination of `axes`, last axis fastest.
template <class Fn>
void for_each_point(const std::vector<Axis>& axes, Fn&& fn) {
  Point p(axes.size());
  const auto fill = [&](auto& self, std::size_t i) -> void {
    if (i == axes.size()) return fn(p);
    for (const unsigned v : axes[i].values) {
      p[i] = v;
      self(self, i + 1);
    }
  };
  fill(fill, 0);
}

// ---- knobs and the file header ----

/// Whether comma list `env` names `name` (every name, when unset).
bool listed(const char* env, const char* name) {
  const char* list = std::getenv(env);
  if (list == nullptr) return true;
  std::stringstream ss(list);
  for (std::string w; std::getline(ss, w, ',');)
    if (w == name) return true;
  return false;
}

Knobs read_knobs() {
  Knobs k;
  k.seconds = harness::env_double("WFE_BENCH_SECONDS", 0.3);
  k.repeats = static_cast<unsigned>(
      std::max<long>(1, harness::env_long("WFE_BENCH_REPEATS", 1)));
  k.key_range = static_cast<std::uint64_t>(
      std::max<long>(1, harness::env_long("WFE_BENCH_KEY_RANGE", 40000)));
  // Prefill cannot exceed the number of distinct keys; clamp so a
  // figure-harness prefill carried over in the environment can't spin
  // the prefill loop forever.
  k.prefill = std::min(
      static_cast<std::uint64_t>(harness::env_long("WFE_BENCH_PREFILL", 20000)),
      k.key_range);
  // The harness parser; the default sweep stays 1,2,4,8 on every host.
  k.threads = std::getenv("WFE_BENCH_THREAD_LIST") != nullptr
                  ? harness::thread_sweep()
                  : std::vector<unsigned>{1, 2, 4, 8};
  const char* dir = std::getenv("WFE_KV_PERSIST_DIR");
  k.persist_dir = dir == nullptr ? "bench_wal" : dir;
  return k;
}

void write_header(util::JsonWriter& j, const Knobs& k,
                  const std::vector<Mode>& modes,
                  const std::vector<std::string>& trackers) {
  j.kv("bench", "kv_throughput");
  j.kv("prefill", k.prefill);
  j.kv("key_range", k.key_range);
  j.kv("seconds", k.seconds);
  j.kv("repeats", k.repeats);
  char host[256] = "unknown";
  gethostname(host, sizeof host - 1);
  j.kv("host", host);
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  sched_getaffinity(0, sizeof cpus, &cpus);
  j.kv("nproc", CPU_COUNT(&cpus));
#if defined(__clang__)
  j.kv("compiler", "clang " __clang_version__);
#else
  j.kv("compiler", "gcc " __VERSION__);
#endif
  j.kv("build_type", KV_BENCH_BUILD_TYPE);  // defined by CMakeLists.txt
  j.key("trackers").begin_array();
  for (const std::string& t : trackers) j.value(t);
  j.end_array();
  j.key("modes").begin_array();
  for (const Mode& m : modes) j.value(m.name);
  j.end_array();
  // Each mode's sweep: its axes (one data point per combination), then
  // its fixed constants.
  j.key("sweeps").begin_object();
  for (const Mode& m : modes) {
    j.key(m.name).begin_object();
    for (const auto* list : {&m.axes, &m.fixed})
      for (const Axis& a : *list) {
        j.key(a.name).begin_array();
        for (const unsigned v : a.values)
          if (a.labels.empty())
            j.value(v);
          else
            j.value(a.labels[v]);
        j.end_array();
      }
    j.end_object();
  }
  j.end_object();
}

}  // namespace

int main() {
  const Knobs k = read_knobs();
  std::vector<std::string> trackers;
  for_each_kv_tracker([&]<class TR>() {
    if (listed("WFE_KV_TRACKERS", TR::name())) trackers.push_back(TR::name());
  });
  // The sweep tables do not depend on the tracker; this copy feeds the
  // file header.
  std::vector<Mode> modes = registry<core::WfeTracker>(k);
  std::erase_if(modes, [](const Mode& m) { return !listed("WFE_KV_MODES", m.name); });
  if (modes.empty() || trackers.empty()) {
    std::fprintf(stderr, "WFE_KV_MODES / WFE_KV_TRACKERS select nothing\n");
    return 2;
  }
  const char* out_path = std::getenv("WFE_KV_JSON");
  if (out_path == nullptr) out_path = "BENCH_kv.json";

  util::JsonWriter j;
  j.begin_object();
  write_header(j, k, modes, trackers);
  j.key("results").begin_array();
  for_each_kv_tracker([&]<class TR>() {
    if (!listed("WFE_KV_TRACKERS", TR::name())) return;
    for (const Mode& m : registry<TR>(k))
      if (listed("WFE_KV_MODES", m.name))
        for_each_point(m.axes, [&](const Point& p) {
          // Echo the point's rows: stdout is the progress log.
          const std::size_t mark = j.str().size();
          m.point(k, p, j);
          std::printf("%s\n", j.str().c_str() + mark);
        });
  });
  j.end_array();
  j.end_object();
  std::filesystem::remove_all(k.persist_dir);

  if (!j.write_file(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}
