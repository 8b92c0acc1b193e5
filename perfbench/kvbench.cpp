// kvbench: the repository benchmark.  Drives
// kv::KvStore<uint64_t, uint64_t, core::WfeTracker> through one named
// workload (workload.hpp) and checks its own outputs.
//
//   kvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   kvbench --list-metrics
//
// --trace 0 is the end-to-end run: closed-loop clients against the
// workload's store, timed in ten equal slices; each figure is the median
// over slices.  --trace 1 is the layer ladder: the same seeded op stream
// replayed against each layer's public entry points, bottom-up, every
// call timed from outside, with a span recorded for every 64th call.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics; the line before it is a fuller report
// (parameters, every metric with unit and sample count, check results).
// Scratch files (WAL directories, the span file) live under
// .bench_build/kvbench in the working directory.

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/wfe.hpp"
#include "ds/hash_map.hpp"
#include "ds/natarajan_bst.hpp"
#include "kv/kv_store.hpp"
#include "kv/shard.hpp"
#include "obs/clock.hpp"
#include "race_log.hpp"
#include "stats.hpp"
#include "util/json.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using wfe::core::WfeTracker;
using wfe::obs::now_ticks;
using wfe::obs::ticks_to_ns;
using Store = wfe::kv::KvStore<std::uint64_t, std::uint64_t, WfeTracker>;
using ShardT = wfe::kv::Shard<std::uint64_t, std::uint64_t, WfeTracker>;
using HashMapT = wfe::ds::HashMap<std::uint64_t, std::uint64_t, WfeTracker>;
using BstT = wfe::ds::NatarajanBst<std::uint64_t, WfeTracker>;

constexpr unsigned kRetireBatch = 8;  // as examples/kv_store.cpp
constexpr int kSlices = 10;
constexpr int kSetups = 3;
constexpr int kMaxSetups = 200;
constexpr unsigned kSpanEvery = 64;
constexpr std::size_t kSpanCapPerClient = 32768;

// ---------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
  bool traced;     ///< produced by the ladder (--trace 1)
  bool in_result;  ///< listed in BENCHMARK.json and the result line
};

// Report-only metrics stay out of the result line: get and scan latencies
// do not exist on every workload; the p99s and maxima spread too widely
// between runs to gate on (README.md); error_rate is 0 on a correct
// program (failures travel in `failed`).
constexpr MetricDef kMetrics[] = {
    {"throughput_mops", "Mops/s", false, true},
    {"get_p50_us", "us", false, false},
    {"get_p99_us", "us", false, false},
    {"write_p50_us", "us", false, true},
    {"write_p99_us", "us", false, false},
    {"scan_p50_us", "us", false, false},
    {"scan_p99_us", "us", false, false},
    {"cpu_us_per_op", "us", false, true},
    {"unreclaimed_p50", "count", false, true},
    {"unreclaimed_p99", "count", false, false},
    {"unreclaimed_max", "count", false, false},
    {"rss_mb", "MB", false, true},
    {"setup_s", "s", false, true},
    {"error_rate", "ratio", false, false},

    {"core.protect_ns", "ns", true, true},
    {"core.op_bracket_ns", "ns", true, true},
    {"core.alloc_ns", "ns", true, true},
    {"core.retire_ns_p50", "ns", true, true},
    {"core.retire_ns_p99", "ns", true, true},
    {"core.slow_path_entries_per_mop", "1/Mop", true, true},
    {"core.era_advances_per_mop", "1/Mop", true, true},
    {"core.reclaim_ratio", "ratio", true, true},
    {"core.retire_backlog_mean", "count", true, true},
    {"core.unreclaimed_parked_shard", "count", true, true},
    {"core.unreclaimed_other_shard_mean", "count", true, true},
    {"ds.hashmap_get_ns", "ns", true, true},
    {"ds.hashmap_put_ns", "ns", true, true},
    {"ds.hashmap_insert_ns", "ns", true, true},
    {"ds.hashmap_remove_ns", "ns", true, true},
    {"ds.get_hit_ratio", "ratio", true, true},
    {"ds.insert_success_ratio", "ratio", true, true},
    {"ds.remove_success_ratio", "ratio", true, true},
    {"ds.bst_get_ns", "ns", true, true},
    {"ds.bst_insert_ns", "ns", true, true},
    {"ds.bst_remove_ns", "ns", true, true},
    {"ds.bst_scan_ns_per_key", "ns", true, true},
    {"kv.shard_get_ns", "ns", true, true},
    {"kv.shard_write_ns", "ns", true, true},
    {"kv.store_get_ns", "ns", true, true},
    {"kv.store_write_ns", "ns", true, true},
    {"kv.store_scan_ns", "ns", true, true},
    {"kv.store_overhead_ns", "ns", true, true},
    {"kv.batch_flushes_per_mop", "1/Mop", true, true},
    {"kv.value_cell_retires_per_mop", "1/Mop", true, true},
    {"kv.scan_keys_per_scan", "count", true, true},
    {"kv.scan_restarts_per_kscan", "1/kscan", true, true},
    {"obs.get_ns_delta", "ns", true, true},
    {"obs.write_ns_delta", "ns", true, true},
    {"persist.write_ns_delta", "ns", true, true},
    {"persist.fsyncs_per_s", "1/s", true, true},
    {"persist.records_per_fsync", "count", true, true},
    {"persist.durable_lag_max", "count", true, true},
    {"persist.backpressure_waits_per_kop", "1/kop", true, true},
    {"persist.wal_bytes_per_user_byte", "ratio", true, true},
    {"persist.recovery_s", "s", true, true},
    {"trace.overhead_ratio", "ratio", true, true},
};

const MetricDef* find_metric(const std::string& name) {
  for (const MetricDef& m : kMetrics)
    if (name == m.name) return &m;
  return nullptr;
}

/// Collects metrics, check outcomes and report fields for one run.
class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}

  void set(const char* name, double value, std::uint64_t samples) {
    const MetricDef* def = find_metric(name);
    if (def == nullptr || def->traced != traced_) {
      std::fprintf(stderr, "kvbench: metric %s does not belong to this mode\n", name);
      std::abort();
    }
    if (!std::isfinite(value)) {
      fail((std::string("non-finite metric ") + name).c_str());
      value = 0;
    }
    values_[name] = Value{value, samples, def->unit};
  }

  /// One correctness check: counted, and recorded by name when it fails.
  void check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) fail(what.c_str());
  }
  void fail(const char* what) {
    ++failed_;
    if (failures_.size() < 32) failures_.emplace_back(what);
    std::fprintf(stderr, "kvbench: check failed: %s\n", what);
  }
  void add_op_failures(std::uint64_t n, const char* where) {
    if (n == 0) return;
    failed_ += n;
    failures_.push_back(std::to_string(n) + " bad results in " + where);
    std::fprintf(stderr, "kvbench: %llu bad results in %s\n",
                 static_cast<unsigned long long>(n), where);
  }
  void add_attempts(std::uint64_t n) { attempted_ += n; }
  double value(const char* name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second.value;
  }
  void note(const std::string& key, double v) { notes_[key] = v; }
  void add_note(const std::string& key, double v) { notes_[key] += v; }

  std::uint64_t attempted() const { return attempted_ + checks_; }

  /// Prints the report line and the result line; true when every check
  /// passed (a result metric never produced counts as a failed check).
  bool emit(const Spec& spec, std::uint64_t seed, double seconds) {
    for (const MetricDef& m : kMetrics)
      if (m.traced == traced_ && m.in_result && values_.count(m.name) == 0)
        fail((std::string("metric not produced: ") + m.name).c_str());
    if (!traced_ && attempted() > 0)
      set("error_rate", static_cast<double>(failed_) / static_cast<double>(attempted()),
          attempted());

    wfe::util::JsonWriter r;
    r.begin_object().key("report").begin_object();
    r.kv("workload", std::string(spec.name)).kv("seed", seed).kv("seconds", seconds);
    r.kv("trace", traced_);
    r.kv("nproc", std::thread::hardware_concurrency());
    r.key("params").begin_object();
    r.kv("clients", spec.clients).kv("parked_reader", spec.parked_reader);
    r.kv("key_range", spec.key_range).kv("shards", std::uint64_t{spec.shards});
    r.kv("buckets_per_shard", std::uint64_t{spec.buckets_per_shard});
    r.key("mix_pct").begin_object();
    for (int k = 0; k < kOpKinds; ++k) r.kv(op_name(static_cast<Op>(k)), spec.mix[k]);
    r.end_object();
    r.kv("put_live_only", spec.put_live_only).kv("scan_span", spec.scan_span);
    r.kv("durable", spec.durable).kv("ordered_index", spec.ordered_index);
    r.kv("metrics", spec.metrics).kv("retire_batch", kRetireBatch);
    r.kv("tracker", WfeTracker::name());
    r.end_object();
    r.key("metrics").begin_object();
    for (const MetricDef& m : kMetrics) {
      auto it = values_.find(m.name);
      if (it == values_.end()) continue;
      r.key(m.name).begin_object();
      r.kv("value", it->second.value).kv("unit", it->second.unit);
      r.kv("samples", it->second.samples).end_object();
    }
    r.end_object();
    r.key("notes").begin_object();
    for (const auto& [k, v] : notes_) r.kv(k.c_str(), v);
    r.end_object();
    r.key("failures").begin_array();
    for (const auto& f : failures_) r.value(f);
    r.end_array();
    r.end_object().end_object();
    std::printf("%s\n", r.str().c_str());

    wfe::util::JsonWriter j;
    j.begin_object();
    j.kv("correct", failed_ == 0).kv("attempted", attempted()).kv("failed", failed_);
    j.key("metrics").begin_object();
    for (const MetricDef& m : kMetrics) {
      if (m.traced != traced_ || !m.in_result) continue;
      auto it = values_.find(m.name);
      if (it == values_.end()) continue;
      j.key(m.name).begin_object();
      j.kv("value", it->second.value).kv("unit", it->second.unit).end_object();
    }
    j.end_object().end_object();
    std::printf("%s\n", j.str().c_str());
    std::fflush(stdout);
    return failed_ == 0;
  }

 private:
  struct Value {
    double value;
    std::uint64_t samples;
    const char* unit;
  };
  bool traced_;
  std::map<std::string, Value> values_;
  std::map<std::string, double> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------- helpers

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

double rss_mb() {
  std::ifstream f("/proc/self/statm");
  std::uint64_t pages = 0, resident = 0;
  f >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

void sleep_s(double s) {
  if (s > 0) std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

template <class Fn>
void run_threads(unsigned n, Fn&& fn) {
  std::vector<std::thread> ts;
  ts.reserve(n);
  for (unsigned t = 0; t < n; ++t) ts.emplace_back([&fn, t] { fn(t); });
  for (auto& t : ts) t.join();
}

/// Median cost of one back-to-back timer pair; ladder figures are net of it.
double timer_overhead_ns() {
  std::vector<std::uint32_t> v(200000);
  for (auto& x : v) {
    const std::uint64_t t0 = now_ticks();
    x = static_cast<std::uint32_t>(ticks_to_ns(now_ticks() - t0));
  }
  return median(std::move(v));
}

/// Outcome counts of one client's ops, and results that failed a check.
struct Tally {
  std::uint64_t gets = 0, get_hits = 0;
  std::uint64_t puts = 0, put_inserted = 0;
  std::uint64_t inserts = 0, inserted = 0;
  std::uint64_t removes = 0, removed = 0;
  std::uint64_t bad = 0;

  void add(const Tally& o) {
    gets += o.gets, get_hits += o.get_hits, puts += o.puts;
    put_inserted += o.put_inserted, inserts += o.inserts, inserted += o.inserted;
    removes += o.removes, removed += o.removed, bad += o.bad;
  }
  /// Keys added minus keys taken away by these ops.
  std::int64_t net_keys() const {
    return static_cast<std::int64_t>(put_inserted + inserted) -
           static_cast<std::int64_t>(removed);
  }
  /// Key+value bytes of the writes that changed state (the WAL's payload).
  std::uint64_t user_bytes() const { return 16 * (puts + inserted) + 8 * removed; }
};

template <class M>
constexpr bool kHasScan = std::is_same_v<M, Store> || std::is_same_v<M, BstT>;

/// Executes one stream item against any layer and checks its result.
/// Returns false when the layer has no entry point for the op (scans on
/// the hash layers); `scanned` receives a scan's visited-key count.
/// Writes are bracketed in `races` when one is given (persistent stores).
template <class M>
bool execute(M& m, const Spec& spec, const Item& it, unsigned tid, Tally& t,
             std::size_t* scanned = nullptr, WriteRaceLog* races = nullptr) {
  switch (it.op) {
    case Op::kGet: {
      const std::optional<std::uint64_t> v = m.get(it.key, tid);
      ++t.gets;
      if (v) {
        ++t.get_hits;
        if (!value_matches(it.key, *v)) ++t.bad;
      }
      return true;
    }
    case Op::kPut: {
      const RaceScope w(races, it.key);
      ++t.puts;
      if (m.put(it.key, it.value, tid)) ++t.put_inserted;
      return true;
    }
    case Op::kInsert: {
      const RaceScope w(races, it.key);
      ++t.inserts;
      if (m.insert(it.key, it.value, tid)) ++t.inserted;
      return true;
    }
    case Op::kRemove: {
      const RaceScope w(races, it.key);
      const std::optional<std::uint64_t> v = m.remove(it.key, tid);
      ++t.removes;
      if (v) {
        ++t.removed;
        if (!value_matches(it.key, *v)) ++t.bad;
      }
      return true;
    }
    case Op::kScan: {
      if constexpr (kHasScan<M>) {
        const std::uint64_t lo = it.key, hi = it.key + spec.scan_span - 1;
        std::uint64_t prev = 0;
        // GCC 12 flags the store's optional<V> read inlined into this
        // visitor as maybe-uninitialized; the store reads it only when set.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
        const std::size_t n = m.scan(
            lo, hi,
            [&](const std::uint64_t& k, const std::uint64_t& v) {
              if (k < lo || k > hi || k <= prev || !value_matches(k, v)) ++t.bad;
              prev = k;
            },
            tid);
#pragma GCC diagnostic pop
        if (scanned != nullptr) *scanned = n;
        return true;
      } else {
        return false;
      }
    }
  }
  return false;
}

/// Inserts the prefill keys from `threads` threads; returns the count.
template <class M>
std::uint64_t prefill(M& m, const std::vector<std::uint64_t>& keys,
                      unsigned threads) {
  std::atomic<std::uint64_t> done{0};
  run_threads(threads, [&](unsigned tid) {
    const std::size_t b = keys.size() * tid / threads;
    const std::size_t e = keys.size() * (tid + 1) / threads;
    std::uint64_t n = 0;
    for (std::size_t i = b; i < e; ++i)
      n += m.insert(keys[i], encode_value(keys[i], 0), tid) ? 1 : 0;
    done.fetch_add(n);
  });
  return done.load();
}

wfe::kv::KvConfig store_config(const Spec& s, bool wal, const fs::path& wal_dir,
                               bool metrics, bool watchdog) {
  wfe::kv::KvConfig c;
  c.shards = s.shards;
  c.buckets_per_shard = s.buckets_per_shard;
  c.tracker.max_threads = thread_slots(s);
  c.tracker.max_hes = Store::kSlotsNeeded;
  c.tracker.retire_batch = kRetireBatch;
  c.ordered_index = s.ordered_index;
  if (wal) {
    c.persistence.enabled = true;
    c.persistence.dir = wal_dir.string();
  }
  if (metrics) {
    c.metrics.enabled = true;
    c.metrics.watchdog.enabled = watchdog;
  }
  return c;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> contents(const Store& s) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(s.size_unsafe());
  s.for_each_unsafe([&](const std::uint64_t& k, const std::uint64_t& v) {
    out.emplace_back(k, v);
  });
  std::sort(out.begin(), out.end());
  return out;
}

struct Reopen {
  double close_s;
  double recovery_s;
};

/// Closes the store cleanly, reopens it from its WAL and compares the
/// recovered contents with the pre-close contents.  Every key must come
/// back exactly, except a key two writes raced on (`races`; null when no
/// writes ran), which may come back absent or holding another value of
/// that key: the store recovers racing writes to one key in log order,
/// not memory order (race_log.hpp).  Such keys are counted in the notes.
Reopen close_and_reopen(std::unique_ptr<Store>& store,
                        const wfe::kv::KvConfig& cfg, Report& rep,
                        const char* when, const WriteRaceLog* races) {
  const auto before = contents(*store);
  const double t0 = wall_s();
  store.reset();
  const double t1 = wall_s();
  store = std::make_unique<Store>(cfg);
  const double t2 = wall_s();
  const auto after = contents(*store);

  // Merge-walk the two sorted lists.
  std::uint64_t raced = 0, wrong = 0;
  for (std::size_t i = 0, j = 0; i < before.size() || j < after.size();) {
    std::uint64_t k;
    std::optional<std::uint64_t> b, a;
    if (j == after.size() || (i < before.size() && before[i].first < after[j].first)) {
      k = before[i].first, b = before[i++].second;
    } else if (i == before.size() || after[j].first < before[i].first) {
      k = after[j].first, a = after[j++].second;
    } else {
      k = before[i].first, b = before[i++].second, a = after[j++].second;
    }
    if (a == b) continue;
    const bool excused = races != nullptr && races->raced(k) && (!a || value_matches(k, *a));
    if (raced + wrong < 8)
      std::fprintf(stderr, "kvbench:   key %llu: before close %s%llx, after reopen %s%llx%s\n",
                   static_cast<unsigned long long>(k), b ? "" : "absent ",
                   static_cast<unsigned long long>(b.value_or(0)), a ? "" : "absent ",
                   static_cast<unsigned long long>(a.value_or(0)),
                   excused ? " (racing writes to the key)" : "");
    ++(excused ? raced : wrong);
  }
  rep.check(wrong == 0, std::string("reopened contents equal pre-close contents on every "
                                    "key without racing writes (") + when + ")");
  rep.add_note("reopen.raced_keys_written", races != nullptr ? races->raced_keys() : 0);
  rep.add_note("reopen.raced_keys_recovered_otherwise", raced);
  return Reopen{t1 - t0, t2 - t1};
}

/// Per-domain ledger closure after quiesce: every block a domain handed
/// out is live (2 per key: node + value cell), buffered, unreclaimed or
/// freed.  The index domain holds 3 blocks per index entry, and entries
/// are at least the primary keys (a cross-thread race may strand one).
void check_ledgers(Store& store, Report& rep) {
  for (unsigned t = 0; t < store.shard_at(0).tracker().max_threads(); ++t)
    store.flush_retired(t);
  const wfe::kv::KvStats st = store.stats();
  std::size_t live_total = 0;
  for (std::size_t i = 0; i < st.shards.size(); ++i) {
    const wfe::kv::ShardStats& s = st.shards[i];
    const std::size_t live = store.shard_at(i).size_unsafe();
    live_total += live;
    rep.check(s.allocated == s.freed + 2 * live + s.pending_retired + s.unreclaimed,
              "ledger closes in shard " + std::to_string(i));
  }
  if (st.ordered_index) {
    const wfe::kv::ShardStats& ix = st.index;
    const std::uint64_t held = ix.allocated - ix.freed - ix.pending_retired - ix.unreclaimed;
    rep.check(ix.allocated >= ix.freed + ix.pending_retired + ix.unreclaimed &&
                  held % 3 == 0 && held / 3 >= live_total,
              "ledger closes in the index domain");
  }
}

std::uint64_t total_unreclaimed(const wfe::kv::KvStats& st) {
  return st.total().unreclaimed + st.index.unreclaimed;
}

/// Samples store.stats() every few milliseconds on its own thread.
class StoreSampler {
 public:
  struct Sample {
    std::uint64_t unreclaimed;  ///< every domain, index included
    std::uint64_t shard0;
    double others_mean;
    std::uint64_t backlog;
    std::uint64_t wal_lag;
  };

  StoreSampler(Store& store, unsigned period_ms)
      : store_(store), thread_([this, period_ms] { loop(period_ms); }) {}
  ~StoreSampler() { stop(); }
  StoreSampler(const StoreSampler&) = delete;
  StoreSampler& operator=(const StoreSampler&) = delete;

  void set_active(bool on) { active_.store(on); }
  void stop() {
    done_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<Sample>& samples() const { return samples_; }  // after stop()

  template <class F>
  std::vector<double> series(F f) const {
    std::vector<double> out;
    for (const Sample& s : samples_) out.push_back(static_cast<double>(f(s)));
    return out;
  }

 private:
  void loop(unsigned period_ms) {
    auto next = std::chrono::steady_clock::now();
    while (!done_.load()) {
      next += std::chrono::milliseconds(period_ms);
      std::this_thread::sleep_until(next);
      if (!active_.load()) continue;
      const wfe::kv::KvStats st = store_.stats();
      Sample s{total_unreclaimed(st), 0, 0, st.total().retire_backlog + st.index.retire_backlog,
               st.total().wal_durable_lag};
      s.shard0 = st.shards[0].unreclaimed;
      double others = 0;
      for (std::size_t i = 1; i < st.shards.size(); ++i)
        others += static_cast<double>(st.shards[i].unreclaimed);
      s.others_mean = st.shards.size() > 1 ? others / static_cast<double>(st.shards.size() - 1) : 0;
      samples_.push_back(s);
    }
  }

  Store& store_;
  std::atomic<bool> active_{false};
  std::atomic<bool> done_{false};
  std::vector<Sample> samples_;
  std::thread thread_;  // last: starts after the members it uses
};

/// Holds one reservation inside shard 0's domain until released, as
/// examples/kv_store.cpp does: the paper's stalled reader.
class ParkedReader {
 public:
  ParkedReader(Store& store, unsigned tid)
      : thread_([this, &store, tid] { park(store.shard_at(0).tracker(), tid); }) {
    while (state_.load() == 0) std::this_thread::yield();
  }
  ~ParkedReader() { release(); }
  ParkedReader(const ParkedReader&) = delete;
  ParkedReader& operator=(const ParkedReader&) = delete;

  void release() {
    state_.store(2);
    if (thread_.joinable()) thread_.join();
  }

 private:
  struct Probe : wfe::reclaim::Block {};

  void park(WfeTracker& domain, unsigned tid) {
    Probe* probe = domain.alloc<Probe>(tid);
    std::atomic<std::uintptr_t> root{reinterpret_cast<std::uintptr_t>(probe)};
    domain.begin_op(tid);
    domain.protect_word(root, 0, tid, nullptr);
    state_.store(1);
    while (state_.load() != 2) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    domain.end_op(tid);
    domain.dealloc(probe, tid);
  }

  std::atomic<int> state_{0};
  std::thread thread_;  // last: starts after state_ exists
};

// ---------------------------------------------------------------- end to end

struct alignas(128) Client {
  std::atomic<std::uint64_t> ops{0};
  Tally tally;
  /// Sampled call latencies in ns: [get | write | scan][slice].
  std::array<std::array<std::vector<std::uint32_t>, kSlices>, 3> lat;
};

int group_of(Op op) { return op == Op::kGet ? 0 : op == Op::kScan ? 2 : 1; }

/// Runs the workload's clients against `store` for a fixed number of ops
/// each (no timing); returns their combined tally.
Tally run_fixed_ops(Store& store, const Spec& spec, std::uint64_t seed,
                    unsigned stream_offset, std::uint64_t ops_each) {
  std::vector<Tally> t(spec.clients);
  run_threads(spec.clients, [&](unsigned tid) {
    OpStream stream(spec, seed, stream_offset + tid);
    for (std::uint64_t i = 0; i < ops_each; ++i)
      execute(store, spec, stream.next(), tid, t[tid]);
  });
  Tally sum;
  for (const Tally& x : t) sum.add(x);
  return sum;
}

void run_end_to_end(const Spec& spec, std::uint64_t seed, double seconds,
                    const fs::path& work, Report& rep) {
  const fs::path wal_dir = work / ("wal-" + std::to_string(getpid()));
  const wfe::kv::KvConfig cfg =
      store_config(spec, spec.durable, wal_dir, spec.metrics, false);
  const std::vector<std::uint64_t> keys = prefill_keys(spec, seed);
  wfe::obs::warm_up();
  const double rss0 = rss_mb();

  // ---- set-up, several times; the last store is the one measured ----
  std::unique_ptr<Store> store;
  std::uint64_t prefilled = 0;
  std::vector<double> setup_times;
  // At least kSetups set-ups, more while they are quick, so the median
  // rests on at least a second of set-up work.
  double setup_total = 0;
  for (int i = 0; i < kMaxSetups && (i < kSetups || setup_total < 1.0); ++i) {
    if (store) {
      store.reset();
      malloc_trim(0);
    }
    if (spec.durable) fs::remove_all(wal_dir);
    const double t0 = wall_s();
    store = std::make_unique<Store>(cfg);
    prefilled = prefill(*store, keys, spec.clients);
    double setup = wall_s() - t0;
    if (spec.durable) {
      const Reopen r = close_and_reopen(store, cfg, rep, "after prefill", nullptr);
      setup += r.close_s + r.recovery_s;
    }
    setup_times.push_back(setup);
    setup_total += setup;
    rep.check(prefilled == keys.size() && store->size_unsafe() == keys.size(),
              "prefill inserted every key");
  }
  rep.set("setup_s", median(setup_times), setup_times.size());

  // ---- timed run ----
  std::vector<Client> clients(spec.clients);
  const auto races = spec.durable ? std::make_unique<WriteRaceLog>(spec.key_range) : nullptr;
  std::optional<ParkedReader> parked;
  if (spec.parked_reader) parked.emplace(*store, spec.clients);
  StoreSampler sampler(*store, 2);

  std::atomic<int> phase{0};  // 0 warm-up, 1 timed, 2 stop
  std::atomic<int> slice{0};
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < spec.clients; ++tid) {
    threads.emplace_back([&, tid] {
      Client& c = clients[tid];
      OpStream stream(spec, seed, tid);
      std::uint64_t n = 0;
      for (int p; (p = phase.load(std::memory_order_relaxed)) != 2;) {
        const Item it = stream.next();
        const bool sample = p == 1 && ((it.seq & 7) == 0 || it.op == Op::kScan);
        const std::uint64_t t0 = sample ? now_ticks() : 0;
        execute(*store, spec, it, tid, c.tally, nullptr, races.get());
        if (sample) {
          const std::uint64_t ns = ticks_to_ns(now_ticks() - t0);
          c.lat[group_of(it.op)][slice.load(std::memory_order_relaxed)].push_back(
              static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, UINT32_MAX)));
        }
        c.ops.store(++n, std::memory_order_relaxed);
      }
    });
  }
  auto total_ops = [&] {
    std::uint64_t n = 0;
    for (const Client& c : clients) n += c.ops.load(std::memory_order_relaxed);
    return n;
  };

  sleep_s(std::max(0.5, 0.1 * seconds));  // warm-up: caches, lazy state
  sampler.set_active(true);
  std::vector<double> tput, cpu_per_op;
  const auto start = std::chrono::steady_clock::now();
  double t_prev = wall_s(), cpu_prev = process_cpu_us();
  std::uint64_t ops_prev = total_ops();
  phase.store(1);
  for (int s = 0; s < kSlices; ++s) {
    slice.store(s);
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds * (s + 1) / kSlices)));
    const double t = wall_s(), cpu = process_cpu_us();
    const std::uint64_t ops = total_ops();
    const double d_ops = static_cast<double>(ops - ops_prev);
    tput.push_back(d_ops / (t - t_prev) / 1e6);
    cpu_per_op.push_back(d_ops > 0 ? (cpu - cpu_prev) / d_ops : 0);
    t_prev = t, cpu_prev = cpu, ops_prev = ops;
  }
  sampler.set_active(false);
  phase.store(2);
  for (auto& t : threads) t.join();
  sampler.stop();

  rep.set("throughput_mops", median(tput), tput.size());
  rep.set("cpu_us_per_op", median(cpu_per_op), cpu_per_op.size());
  const char* p50_name[3] = {"get_p50_us", "write_p50_us", "scan_p50_us"};
  const char* p99_name[3] = {"get_p99_us", "write_p99_us", "scan_p99_us"};
  for (int g = 0; g < 3; ++g) {
    std::vector<double> p50, p99;
    std::uint64_t samples = 0;
    for (int s = 0; s < kSlices; ++s) {
      std::vector<std::uint32_t> v;
      for (Client& c : clients) {
        v.insert(v.end(), c.lat[g][s].begin(), c.lat[g][s].end());
        c.lat[g][s] = {};
      }
      if (v.empty()) continue;
      samples += v.size();
      p50.push_back(quantile(v, 0.50) / 1e3);
      p99.push_back(quantile(v, 0.99) / 1e3);
    }
    if (samples == 0) continue;  // the mix has no such op
    rep.set(p50_name[g], median(p50), samples);
    rep.set(p99_name[g], median(p99), samples);
  }
  // The latency samples are freed by now: what remains is the store.
  malloc_trim(0);
  rep.set("rss_mb", rss_mb() - rss0, 1);
  // Gated on the median: bursts of frees released by one fsync make the
  // tail swing severalfold between runs.
  auto unreclaimed = sampler.series([](const auto& s) { return s.unreclaimed; });
  rep.check(!unreclaimed.empty(), "unreclaimed count was sampled");
  rep.set("unreclaimed_p50", quantile(unreclaimed, 0.5), unreclaimed.size());
  rep.set("unreclaimed_p99", quantile(unreclaimed, 0.99), unreclaimed.size());
  rep.set("unreclaimed_max", quantile(unreclaimed, 1.0), unreclaimed.size());

  Tally tally;
  std::uint64_t attempted = 0;
  for (const Client& c : clients) {
    tally.add(c.tally);
    attempted += c.ops.load();
  }

  // ---- the paper's stall property (churn-hot-stalled) ----
  if (parked) {
    const auto shard0 = sampler.series([](const auto& s) { return s.shard0; });
    const auto others = sampler.series([](const auto& s) { return s.others_mean; });
    const double first_q = mean_of_span(shard0, 0.0, 0.25);
    const double last_q = mean_of_span(shard0, 0.75, 1.0);
    const double others_parked = mean(others);
    // The parked reservation pins only blocks that were alive when it was
    // taken, so the parked shard's count must level off: a scheme whose
    // garbage grows without bound (EBR) fails this within the first run.
    rep.check(last_q <= 1.25 * first_q + 64,
              "parked shard's unreclaimed count levels off");
    parked->release();
    parked.reset();
    // Unparked reference: the same churn with no stalled reader.
    StoreSampler ref(*store, 5);
    ref.set_active(true);
    const Tally t2 = run_fixed_ops(*store, spec, seed, 1000, 300000);
    ref.stop();
    tally.add(t2);
    attempted += 300000ull * spec.clients;
    const double others_unparked =
        mean(ref.series([](const auto& s) { return s.others_mean; }));
    rep.check(others_parked <= 2.0 * others_unparked + 64,
              "unparked shards stay near their unstalled level");
    rep.note("stall.parked_first_quarter_mean", first_q);
    rep.note("stall.parked_last_quarter_mean", last_q);
    rep.note("stall.others_mean_parked", others_parked);
    rep.note("stall.others_mean_unparked", others_unparked);
  }

  // ---- checks after quiesce ----
  rep.add_attempts(attempted);
  rep.add_op_failures(tally.bad, "get/remove/scan results");
  const std::int64_t expect = static_cast<std::int64_t>(prefilled) + tally.net_keys();
  rep.check(static_cast<std::int64_t>(store->size_unsafe()) == expect,
            "size equals prefill + inserts - removes");
  check_ledgers(*store, rep);
  if (spec.durable) close_and_reopen(store, cfg, rep, "after the run", races.get());
  store.reset();
  if (spec.durable) fs::remove_all(wal_dir);
}

// ---------------------------------------------------------------- ladder

struct Span {
  std::uint8_t rung;
  std::uint8_t op;
  std::uint32_t client;
  std::uint64_t op_id;
  std::uint64_t t0, t1;
};

/// Timings and outcomes of one rung window.
struct Window {
  std::array<std::vector<std::uint32_t>, kOpKinds> ns;  ///< per op kind
  std::vector<double> scan_ns_per_key;
  Tally tally;
  std::uint64_t ops = 0;
  double seconds = 0;

  double p(Op op, double q, double overhead) {
    auto& v = ns[static_cast<int>(op)];
    return v.empty() ? 0.0 : quantile(v, q) - overhead;
  }
  std::uint64_t samples(Op op) const { return ns[static_cast<int>(op)].size(); }
  std::vector<std::uint32_t> writes() const {
    std::vector<std::uint32_t> w;
    for (Op op : {Op::kPut, Op::kInsert, Op::kRemove})
      w.insert(w.end(), ns[static_cast<int>(op)].begin(), ns[static_cast<int>(op)].end());
    return w;
  }
  double mops() const { return seconds > 0 ? static_cast<double>(ops) / seconds / 1e6 : 0; }
};

class Ladder {
 public:
  Ladder(const Spec& spec, std::uint64_t seed, double seconds, const fs::path& work,
         Report& rep)
      : spec_(spec),
        seed_(seed),
        work_(work),
        rep_(rep),
        window_s_(seconds / 9),  // nine windows, listed in run()
        keys_(prefill_keys(spec, seed)),
        spans_(spec.clients) {}

  void run();

 private:
  /// Replays the stream (with probes) from every client against `m` for
  /// one window.  Traced windows time every call and keep sampled spans.
  template <class M>
  Window window(M& m, std::uint8_t rung, bool traced, WriteRaceLog* races = nullptr) {
    Window w;
    std::vector<Window> per(spec_.clients);
    std::atomic<bool> stop{false};
    std::vector<std::thread> ts;
    const double t0 = wall_s();
    for (unsigned tid = 0; tid < spec_.clients; ++tid) {
      ts.emplace_back([&, tid] {
        Window& mine = per[tid];
        OpStream stream(spec_, seed_, tid, /*probes=*/true);
        while (!stop.load(std::memory_order_relaxed)) {
          const Item it = stream.next();
          ++mine.ops;
          if (!traced) {
            execute(m, spec_, it, tid, mine.tally, nullptr, races);
            continue;
          }
          std::size_t scanned = 0;
          const std::uint64_t a = now_ticks();
          const bool ran = execute(m, spec_, it, tid, mine.tally, &scanned, races);
          const std::uint64_t b = now_ticks();
          if (!ran) continue;
          const auto ns = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(ticks_to_ns(b - a), UINT32_MAX));
          mine.ns[static_cast<int>(it.op)].push_back(ns);
          if (it.op == Op::kScan && scanned > 0)
            mine.scan_ns_per_key.push_back(static_cast<double>(ns) / static_cast<double>(scanned));
          span(rung, it, tid, a, b);
        }
      });
    }
    sleep_s(window_s_);
    stop.store(true);
    for (auto& t : ts) t.join();
    w.seconds = wall_s() - t0;
    for (Window& x : per) {
      for (int k = 0; k < kOpKinds; ++k)
        w.ns[k].insert(w.ns[k].end(), x.ns[k].begin(), x.ns[k].end());
      w.scan_ns_per_key.insert(w.scan_ns_per_key.end(), x.scan_ns_per_key.begin(),
                               x.scan_ns_per_key.end());
      w.tally.add(x.tally);
      w.ops += x.ops;
    }
    rep_.add_attempts(w.ops);
    rep_.add_op_failures(w.tally.bad, rung_names_[rung]);
    return w;
  }

  void span(std::uint8_t rung, const Item& it, unsigned tid, std::uint64_t a, std::uint64_t b) {
    if (it.seq % kSpanEvery != 0 || spans_[tid].size() >= kSpanCapPerClient) return;
    spans_[tid].push_back(Span{rung, static_cast<std::uint8_t>(it.op), tid,
                               (std::uint64_t{tid} << 40) | it.seq, a, b});
  }

  /// Size accounting after a window: prefill + inserts - removes.
  template <class M>
  void check_size(const M& m, std::uint64_t prefilled, const Tally& t, const char* rung) {
    rep_.check(static_cast<std::int64_t>(m.size_unsafe()) ==
                   static_cast<std::int64_t>(prefilled) + t.net_keys(),
               std::string("size accounting holds on the ") + rung + " rung");
  }

  wfe::reclaim::TrackerConfig tracker_config(unsigned max_hes) const {
    wfe::reclaim::TrackerConfig c;
    c.max_threads = thread_slots(spec_);
    c.max_hes = max_hes;
    c.retire_batch = kRetireBatch;
    return c;
  }

  void core_rung();
  template <class M>
  Window bare_rung(M& m, std::uint8_t rung);
  void write_spans();

  const Spec& spec_;
  std::uint64_t seed_;
  fs::path work_;
  Report& rep_;
  double window_s_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::vector<Span>> spans_;
  double overhead_ = 0;
  static constexpr const char* rung_names_[] = {
      "core", "hashmap", "bst", "shard", "store", "store+obs", "store+wal", "top", "top-traced"};
};

/// Bare WfeTracker: one protected word per key slot.  Reads bracket a
/// protect; writes allocate a cell, swap it in and retire the old one.
void Ladder::core_rung() {
  struct Cell : wfe::reclaim::Block {
    explicit Cell(std::uint64_t v) : value(v) {}
    std::uint64_t value;
  };
  WfeTracker tracker(tracker_config(Store::kSlotsNeeded));
  const std::size_t slots = std::min<std::uint64_t>(spec_.key_range, 65536);
  std::vector<std::atomic<std::uintptr_t>> words(slots);
  for (std::size_t i = 0; i < slots; ++i)
    words[i].store(reinterpret_cast<std::uintptr_t>(
        tracker.alloc<Cell>(0, encode_value(i + 1, 0))));

  struct Samples {
    std::vector<std::uint32_t> protect, bracket, alloc, retire;
    std::uint64_t ops = 0, bad = 0;
  };
  std::vector<Samples> per(spec_.clients);
  std::atomic<bool> stop{false};
  std::vector<std::thread> ts;
  for (unsigned tid = 0; tid < spec_.clients; ++tid) {
    ts.emplace_back([&, tid] {
      Samples& s = per[tid];
      OpStream stream(spec_, seed_, tid, /*probes=*/true);
      auto ns = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<std::uint32_t>(std::min<std::uint64_t>(ticks_to_ns(b - a), UINT32_MAX));
      };
      while (!stop.load(std::memory_order_relaxed)) {
        const Item it = stream.next();
        ++s.ops;
        const std::size_t slot = (it.key - 1) % slots;
        if (!is_write(it.op)) {
          const std::uint64_t t0 = now_ticks();
          tracker.begin_op(tid);
          const std::uint64_t t1 = now_ticks();
          const auto* c = reinterpret_cast<const Cell*>(
              tracker.protect_word(words[slot], 0, tid, nullptr));
          const std::uint64_t t2 = now_ticks();
          if (((c->value >> 32) - 1) % slots != slot) ++s.bad;
          const std::uint64_t t3 = now_ticks();
          tracker.end_op(tid);
          const std::uint64_t t4 = now_ticks();
          s.protect.push_back(ns(t1, t2));
          s.bracket.push_back(ns(t0, t1) + ns(t3, t4));
          if (it.seq % kSpanEvery == 0) span(0, it, tid, t0, t4);
        } else {
          const std::uint64_t t0 = now_ticks();
          Cell* c = tracker.alloc<Cell>(tid, it.value);
          const std::uint64_t t1 = now_ticks();
          auto* old = reinterpret_cast<Cell*>(
              words[slot].exchange(reinterpret_cast<std::uintptr_t>(c)));
          const std::uint64_t t2 = now_ticks();
          tracker.retire(old, tid);
          const std::uint64_t t3 = now_ticks();
          s.alloc.push_back(ns(t0, t1));
          s.retire.push_back(ns(t2, t3));
          if (it.seq % kSpanEvery == 0) span(0, it, tid, t0, t3);
        }
      }
    });
  }
  sleep_s(window_s_);
  stop.store(true);
  for (auto& t : ts) t.join();

  Samples all;
  for (Samples& s : per) {
    all.protect.insert(all.protect.end(), s.protect.begin(), s.protect.end());
    all.bracket.insert(all.bracket.end(), s.bracket.begin(), s.bracket.end());
    all.alloc.insert(all.alloc.end(), s.alloc.begin(), s.alloc.end());
    all.retire.insert(all.retire.end(), s.retire.begin(), s.retire.end());
    all.ops += s.ops;
    all.bad += s.bad;
  }
  rep_.add_attempts(all.ops);
  rep_.add_op_failures(all.bad, "core");
  rep_.set("core.protect_ns", quantile(all.protect, 0.5) - overhead_, all.protect.size());
  rep_.set("core.op_bracket_ns", quantile(all.bracket, 0.5) - 2 * overhead_, all.bracket.size());
  rep_.set("core.alloc_ns", quantile(all.alloc, 0.5) - overhead_, all.alloc.size());
  rep_.set("core.retire_ns_p50", quantile(all.retire, 0.5) - overhead_, all.retire.size());
  rep_.set("core.retire_ns_p99", quantile(all.retire, 0.99) - overhead_, all.retire.size());
  for (auto& w : words) tracker.dealloc(reinterpret_cast<Cell*>(w.load()), 0);
}

template <class M>
Window Ladder::bare_rung(M& m, std::uint8_t rung) {
  const std::uint64_t n = prefill(m, keys_, spec_.clients);
  rep_.check(n == keys_.size(), std::string("prefill inserted every key on the ") +
                                    rung_names_[rung] + " rung");
  Window w = window(m, rung, true);
  check_size(m, n, w.tally, rung_names_[rung]);
  return w;
}

double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

void Ladder::run() {
  overhead_ = timer_overhead_ns();
  rep_.note("timer_overhead_ns", overhead_);
  const double oh = overhead_;

  // core: the bare tracker.
  core_rung();

  // ds: bare hash map and bare BST, same geometry and keys.  Each
  // structure is declared after its tracker, so it is torn down first.
  {
    WfeTracker tracker(tracker_config(HashMapT::kSlotsNeeded));
    auto map = std::make_unique<HashMapT>(tracker, spec_.shards * spec_.buckets_per_shard);
    Window w = bare_rung(*map, 1);
    rep_.set("ds.hashmap_get_ns", w.p(Op::kGet, 0.5, oh), w.samples(Op::kGet));
    rep_.set("ds.hashmap_put_ns", w.p(Op::kPut, 0.5, oh), w.samples(Op::kPut));
    rep_.set("ds.hashmap_insert_ns", w.p(Op::kInsert, 0.5, oh), w.samples(Op::kInsert));
    rep_.set("ds.hashmap_remove_ns", w.p(Op::kRemove, 0.5, oh), w.samples(Op::kRemove));
    rep_.set("ds.get_hit_ratio", ratio(w.tally.get_hits, w.tally.gets), w.tally.gets);
    rep_.set("ds.insert_success_ratio", ratio(w.tally.inserted, w.tally.inserts), w.tally.inserts);
    rep_.set("ds.remove_success_ratio", ratio(w.tally.removed, w.tally.removes), w.tally.removes);
  }
  {
    WfeTracker tracker(tracker_config(BstT::kSlotsNeeded));
    auto tree = std::make_unique<BstT>(tracker);
    Window w = bare_rung(*tree, 2);
    rep_.set("ds.bst_get_ns", w.p(Op::kGet, 0.5, oh), w.samples(Op::kGet));
    rep_.set("ds.bst_insert_ns", w.p(Op::kInsert, 0.5, oh), w.samples(Op::kInsert));
    rep_.set("ds.bst_remove_ns", w.p(Op::kRemove, 0.5, oh), w.samples(Op::kRemove));
    rep_.set("ds.bst_scan_ns_per_key", median(w.scan_ns_per_key), w.scan_ns_per_key.size());
  }
  malloc_trim(0);

  // kv: one Shard holding every key, then the store.
  Window shard_w;
  {
    auto shard = std::make_unique<ShardT>(tracker_config(ShardT::kSlotsNeeded),
                                          spec_.shards * spec_.buckets_per_shard);
    shard_w = bare_rung(*shard, 3);
    for (unsigned t = 0; t < thread_slots(spec_); ++t) shard->flush_retired(t);
    auto w = shard_w.writes();
    rep_.set("kv.shard_get_ns", shard_w.p(Op::kGet, 0.5, oh), shard_w.samples(Op::kGet));
    rep_.set("kv.shard_write_ns", quantile(w, 0.5) - oh, w.size());
  }
  malloc_trim(0);

  const fs::path wal_dir = work_ / ("ladder-wal-" + std::to_string(getpid()));
  // One store rung: build with `cfg`, prefill, run a traced window.
  auto store_rung = [&](const wfe::kv::KvConfig& cfg, std::uint8_t rung, auto&& after) {
    auto store = std::make_unique<Store>(cfg);
    const std::uint64_t n = prefill(*store, keys_, spec_.clients);
    rep_.check(n == keys_.size(), std::string("prefill inserted every key on the ") +
                                      rung_names_[rung] + " rung");
    after(store, n);
    check_ledgers(*store, rep_);
    store.reset();
    malloc_trim(0);
  };

  Window base_w, obs_w, wal_w;
  store_rung(store_config(spec_, false, {}, false, false), 4, [&](auto& s, std::uint64_t n) {
    base_w = window(*s, 4, true);
    check_size(*s, n, base_w.tally, "store");
  });
  store_rung(store_config(spec_, false, {}, true, true), 5, [&](auto& s, std::uint64_t n) {
    obs_w = window(*s, 5, true);
    check_size(*s, n, obs_w.tally, "store+obs");
  });
  fs::remove_all(wal_dir);
  const auto wal_cfg = store_config(spec_, true, wal_dir, false, false);
  store_rung(wal_cfg, 6, [&](auto& s, std::uint64_t n) {
    auto wal_totals = [&] {
      std::uint64_t lsn = 0, bytes = 0;
      for (std::size_t i = 0; i < s->shard_count(); ++i) {
        lsn += s->shard_at(i).wal()->appended_lsn();
        bytes += s->shard_at(i).wal()->bytes_appended();
      }
      return std::pair{lsn, bytes};
    };
    const auto st0 = s->stats().total();
    const auto [lsn0, bytes0] = wal_totals();
    StoreSampler sampler(*s, 10);
    sampler.set_active(true);
    WriteRaceLog races(spec_.key_range);
    wal_w = window(*s, 6, true, &races);
    sampler.stop();
    const auto st1 = s->stats().total();
    const auto [lsn1, bytes1] = wal_totals();
    check_size(*s, n, wal_w.tally, "store+wal");
    const double fsyncs = static_cast<double>(st1.wal_fsyncs - st0.wal_fsyncs);
    const auto lag = sampler.series([](const auto& x) { return x.wal_lag; });
    rep_.set("persist.fsyncs_per_s", fsyncs / wal_w.seconds, sampler.samples().size());
    rep_.set("persist.records_per_fsync", ratio(static_cast<double>(lsn1 - lsn0), fsyncs),
             lsn1 - lsn0);
    rep_.set("persist.durable_lag_max", lag.empty() ? 0 : *std::max_element(lag.begin(), lag.end()),
             lag.size());
    rep_.set("persist.backpressure_waits_per_kop",
             ratio(static_cast<double>(st1.wal_backpressure_waits - st0.wal_backpressure_waits),
                   static_cast<double>(wal_w.ops) / 1e3),
             wal_w.ops);
    rep_.set("persist.wal_bytes_per_user_byte",
             ratio(static_cast<double>(bytes1 - bytes0),
                   static_cast<double>(wal_w.tally.user_bytes())),
             wal_w.tally.user_bytes());
    rep_.set("persist.recovery_s",
             close_and_reopen(s, wal_cfg, rep_, "store+wal rung", &races).recovery_s, 1);
  });
  fs::remove_all(wal_dir);

  auto write_p50 = [&](const Window& w) {
    auto v = w.writes();
    return quantile(v, 0.5);
  };
  rep_.set("kv.store_get_ns", base_w.p(Op::kGet, 0.5, oh), base_w.samples(Op::kGet));
  rep_.set("kv.store_write_ns", write_p50(base_w) - oh, base_w.writes().size());
  rep_.set("kv.store_scan_ns", base_w.p(Op::kScan, 0.5, oh), base_w.samples(Op::kScan));
  // Store rung minus shard rung, per op kind, weighted by the mix.
  {
    double overhead = 0, weight = 0;
    for (Op op : {Op::kGet, Op::kPut, Op::kInsert, Op::kRemove}) {
      const double share = spec_.mix[static_cast<int>(op)];
      if (share == 0) continue;
      overhead += share * (base_w.p(op, 0.5, 0) - shard_w.p(op, 0.5, 0));
      weight += share;
    }
    rep_.set("kv.store_overhead_ns", ratio(overhead, weight), base_w.ops);
  }
  rep_.set("obs.get_ns_delta", obs_w.p(Op::kGet, 0.5, 0) - base_w.p(Op::kGet, 0.5, 0),
           obs_w.samples(Op::kGet));
  rep_.set("obs.write_ns_delta", write_p50(obs_w) - write_p50(base_w), obs_w.writes().size());
  rep_.set("persist.write_ns_delta", write_p50(wal_w) - write_p50(base_w),
           wal_w.writes().size());

  // Top rung: the workload's own store, untraced then traced.
  fs::remove_all(wal_dir);
  store_rung(store_config(spec_, spec_.durable, wal_dir, spec_.metrics, false), 7,
             [&](auto& s, std::uint64_t n) {
               std::optional<ParkedReader> parked;
               if (spec_.parked_reader) parked.emplace(*s, spec_.clients);
               const Window plain = window(*s, 7, false);
               auto eras = [&] {
                 std::uint64_t e = 0;
                 for (std::size_t i = 0; i < s->shard_count(); ++i)
                   e += s->shard_at(i).tracker().era();
                 return e;
               };
               const wfe::kv::KvStats st0 = s->stats();
               const std::uint64_t era0 = eras();
               StoreSampler sampler(*s, 10);
               sampler.set_active(true);
               const Window w = window(*s, 8, true);
               sampler.stop();
               const wfe::kv::KvStats st1 = s->stats();
               const std::uint64_t era1 = eras();
               parked.reset();
               Tally both = plain.tally;
               both.add(w.tally);
               check_size(*s, n, both, "top");

               const double mops = static_cast<double>(w.ops) / 1e6;
               const auto t0 = st0.total(), t1 = st1.total();
               auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
               rep_.set("core.slow_path_entries_per_mop",
                        ratio(d(t0.slow_path_entries + st0.index.slow_path_entries,
                                t1.slow_path_entries + st1.index.slow_path_entries),
                              mops),
                        w.ops);
               rep_.set("core.era_advances_per_mop", ratio(d(era0, era1), mops), w.ops);
               rep_.set("core.reclaim_ratio",
                        ratio(d(t0.freed + st0.index.freed, t1.freed + st1.index.freed),
                              d(t0.retired + st0.index.retired, t1.retired + st1.index.retired)),
                        w.ops);
               const auto& smp = sampler.samples();
               rep_.set("core.retire_backlog_mean",
                        mean(sampler.series([](const auto& x) { return x.backlog; })), smp.size());
               rep_.set("core.unreclaimed_parked_shard",
                        mean(sampler.series([](const auto& x) { return x.shard0; })), smp.size());
               rep_.set("core.unreclaimed_other_shard_mean",
                        mean(sampler.series([](const auto& x) { return x.others_mean; })),
                        smp.size());
               rep_.set("kv.batch_flushes_per_mop",
                        ratio(d(t0.batch_flushes + st0.index.batch_flushes,
                                t1.batch_flushes + st1.index.batch_flushes),
                              mops),
                        w.ops);
               rep_.set("kv.value_cell_retires_per_mop",
                        ratio(d(t0.value_cell_retires, t1.value_cell_retires), mops), w.ops);
               const double scans = d(st0.scan_ops, st1.scan_ops);
               rep_.set("kv.scan_keys_per_scan", ratio(d(st0.scan_keys, st1.scan_keys), scans),
                        static_cast<std::uint64_t>(scans));
               rep_.set("kv.scan_restarts_per_kscan",
                        ratio(d(st0.scan_restarts, st1.scan_restarts), scans / 1e3),
                        static_cast<std::uint64_t>(scans));
               rep_.set("trace.overhead_ratio", ratio(plain.mops(), w.mops()), w.ops);
             });
  fs::remove_all(wal_dir);

  // Rungs should be monotone within noise: map <= shard <= store.
  const double g_map = rep_.value("ds.hashmap_get_ns");
  const double g_shard = rep_.value("kv.shard_get_ns");
  const double g_store = rep_.value("kv.store_get_ns");
  rep_.note("rungs_monotone_get", g_map <= 1.1 * g_shard && g_shard <= 1.1 * g_store);
  write_spans();
}

void Ladder::write_spans() {
  const fs::path path = work_ / ("spans-" + std::string(spec_.name) + "-" +
                                 std::to_string(seed_) + ".csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::uint64_t n = 0, origin = UINT64_MAX;
  for (const auto& v : spans_)
    for (const Span& s : v) origin = std::min(origin, s.t0);
  if (f != nullptr) {
    std::fprintf(f, "rung,op,op_id,client,start_ns,end_ns\n");
    for (const auto& v : spans_) {
      for (const Span& s : v) {
        std::fprintf(f, "%s,%s,%llu,%u,%llu,%llu\n", rung_names_[s.rung],
                     op_name(static_cast<Op>(s.op)), static_cast<unsigned long long>(s.op_id),
                     s.client, static_cast<unsigned long long>(ticks_to_ns(s.t0 - origin)),
                     static_cast<unsigned long long>(ticks_to_ns(s.t1 - origin)));
        ++n;
      }
    }
  }
  rep_.check(f != nullptr && std::fclose(f) == 0, "span file written");
  rep_.note("spans", static_cast<double>(n));
}

// ---------------------------------------------------------------- main

int usage() {
  std::fprintf(stderr,
               "usage: kvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "       kvbench --list-metrics\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      for (const MetricDef& m : kMetrics)
        if (m.in_result)
          std::printf("%s %s %s\n", m.traced ? "per_layer" : "end_to_end", m.name, m.unit);
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") seconds = std::strtod(v, nullptr);
    else if (a == "--trace") trace = std::atoi(v);
    else return usage();
  }
  const Spec* spec = find_spec(workload);
  if (spec == nullptr || !(seconds > 0) || (trace != 0 && trace != 1)) return usage();

  const fs::path work = fs::path(".bench_build") / "kvbench";
  try {
    fs::create_directories(work);
    Report rep(trace == 1);
    if (trace == 0) {
      run_end_to_end(*spec, seed, seconds, work, rep);
    } else {
      Ladder(*spec, seed, seconds, work, rep).run();
    }
    return rep.emit(*spec, seed, seconds) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kvbench: %s\n", e.what());
    return 1;
  }
}
