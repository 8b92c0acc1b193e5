#pragma once
// Workload definitions and the seeded op stream shared by the end-to-end
// run and the layer ladder.
//
// Every workload is a closed loop: a client issues its next call only
// after the previous one returned.  A client's stream is a pure function
// of (workload, seed, client index), so the ladder replays exactly the
// ops the end-to-end run issued, rung by rung.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "util/random.hpp"

namespace perfbench {

enum class Op : std::uint8_t { kGet, kPut, kInsert, kRemove, kScan };
inline constexpr int kOpKinds = 5;

inline constexpr const char* op_name(Op op) noexcept {
  constexpr const char* kNames[kOpKinds] = {"get", "put", "insert", "remove",
                                            "scan"};
  return kNames[static_cast<int>(op)];
}
inline constexpr bool is_write(Op op) noexcept {
  return op == Op::kPut || op == Op::kInsert || op == Op::kRemove;
}

struct Spec {
  std::string_view name;
  unsigned clients;
  /// A thread parks a reservation in shard 0's domain for the whole run
  /// (the paper's stalled-reader scenario).
  bool parked_reader;
  std::uint64_t key_range;  ///< keys are 1..key_range
  /// Percent of the key range live after prefill.  Set to the mix's
  /// equilibrium (inserting share / (inserting + removing share)) so the
  /// live-key count, and with it the cost of every op, holds steady over
  /// a run of any length.
  unsigned live_pct;
  std::size_t shards;
  std::size_t buckets_per_shard;
  std::array<unsigned, kOpKinds> mix;  ///< percent per Op, sums to 100
  /// Puts target initially-live keys only, so every put replaces a value
  /// in place and the live-key count never drifts.
  bool put_live_only;
  std::uint64_t scan_span;  ///< keys per scan range
  bool durable;             ///< WAL on, sync = batched
  bool ordered_index;
  bool metrics;
};

// Why each workload exists is written up in perfbench/README.md.
inline constexpr Spec kSpecs[] = {
    {"read-mostly-large", 4, false, 2'000'000, 50, 8, 131072,
     {90, 10, 0, 0, 0}, true, 0, false, false, false},
    {"churn-hot-stalled", 3, true, 8192, 50, 8, 512, {0, 0, 50, 50, 0}, false,
     0, false, false, false},
    {"durable-ordered", 2, false, 250'000, 80, 2, 65536, {45, 40, 0, 10, 5},
     false, 128, true, true, true},
};

inline const Spec* find_spec(std::string_view name) noexcept {
  for (const Spec& s : kSpecs)
    if (s.name == name) return &s;
  return nullptr;
}

/// Thread slots a workload's store needs: the clients, plus the parked
/// reader's slot.
inline unsigned thread_slots(const Spec& s) noexcept {
  return s.clients + (s.parked_reader ? 1 : 0);
}

inline std::uint64_t mix64(std::uint64_t x) noexcept {
  return wfe::util::splitmix64_next(x);
}

/// Whether `key` is live after prefill: live_pct percent of the key
/// range, chosen by the seed.
inline bool initially_live(const Spec& s, std::uint64_t seed,
                           std::uint64_t key) noexcept {
  return mix64(mix64(seed ^ 0x6b79'6c69'7665ull) ^ key) % 100 < s.live_pct;
}

/// Prefill keys in a seeded random order: ascending inserts would turn the
/// unbalanced ordered index into a list.
inline std::vector<std::uint64_t> prefill_keys(const Spec& s,
                                               std::uint64_t seed) {
  std::vector<std::uint64_t> keys;
  keys.reserve(s.key_range * s.live_pct / 100 + 1024);
  for (std::uint64_t k = 1; k <= s.key_range; ++k)
    if (initially_live(s, seed, k)) keys.push_back(k);
  wfe::util::Xoshiro256 rng(mix64(seed ^ 0x7368'7566ull));
  for (std::size_t i = keys.size(); i > 1; --i)
    std::swap(keys[i - 1], keys[rng.next_bounded(i)]);
  return keys;
}

/// Values carry their key in the high half, so every read can be checked.
inline constexpr std::uint64_t encode_value(std::uint64_t key,
                                            std::uint64_t tag) noexcept {
  return (key << 32) | (tag & 0xffff'ffffull);
}
inline constexpr bool value_matches(std::uint64_t key,
                                    std::uint64_t value) noexcept {
  return (value >> 32) == key;
}

struct Item {
  Op op;
  std::uint64_t key;    ///< scans: first key of the range
  std::uint64_t value;  ///< puts and inserts
  std::uint64_t seq;    ///< position in this client's stream
};

/// One client's op stream.  With `probes` on (the layer ladder), every
/// 16th op is replaced by an op kind the mix lacks, in turn, so every
/// layer entry point gets timed on every workload's keys and geometry.
class OpStream {
 public:
  OpStream(const Spec& spec, std::uint64_t seed, unsigned client,
           bool probes = false)
      : spec_(spec),
        seed_(seed),
        client_(client),
        rng_(mix64(seed * 0x9e37'79b9'7f4a'7c15ull + client + 1)) {
    if (probes)
      for (int k = 0; k < kOpKinds; ++k)
        if (spec.mix[k] == 0) probe_kinds_[probe_count_++] = static_cast<Op>(k);
  }

  Item next() noexcept {
    const std::uint64_t seq = seq_++;
    Op op;
    if (probe_count_ != 0 && seq % 16 == 15) {
      op = probe_kinds_[probe_turn_++ % probe_count_];
    } else {
      unsigned draw = static_cast<unsigned>(rng_.next_bounded(100));
      int k = 0;
      while (draw >= spec_.mix[k]) draw -= spec_.mix[k++];
      op = static_cast<Op>(k);
    }
    std::uint64_t key = draw_key();
    if (op == Op::kPut && spec_.put_live_only)
      while (!initially_live(spec_, seed_, key)) key = draw_key();
    const std::uint64_t tag = (std::uint64_t{client_} << 28) | (seq & 0x0fff'ffff);
    return Item{op, key, encode_value(key, tag), seq};
  }

 private:
  std::uint64_t draw_key() noexcept {
    return rng_.next_bounded(spec_.key_range) + 1;
  }

  const Spec& spec_;
  std::uint64_t seed_;
  unsigned client_;
  wfe::util::Xoshiro256 rng_;
  std::uint64_t seq_ = 0;
  std::array<Op, kOpKinds> probe_kinds_{};
  int probe_count_ = 0;
  unsigned probe_turn_ = 0;
};

}  // namespace perfbench
