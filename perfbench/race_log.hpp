#pragma once
// Which keys had two clients' writes in flight at once.
//
// The store's durability contract (README "Recovery file-format
// invariants", persist/snapshot.hpp) is exact recovery for every key
// whose writes do not overlap in time: a record is appended after its
// cell CAS, so two writes racing on ONE key may be logged in the
// opposite order to the one they took effect in, and recovery then
// keeps the racer that lost in memory.  The close/reopen check uses this
// log to hold every other key to exact equality.

#include <atomic>
#include <cstdint>
#include <vector>

namespace perfbench {

class WriteRaceLog {
 public:
  /// Keys are 1..key_range.
  explicit WriteRaceLog(std::uint64_t key_range) : words_(key_range + 1) {}

  /// Brackets one write.  The fetch_add/fetch_sub pair on the key's word
  /// orders it against every other write to the key: a write that finds
  /// the count 0 started after each earlier one had returned, so it took
  /// effect and was logged after them.
  void begin(std::uint64_t key) noexcept {
    if ((words_[key].fetch_add(1, std::memory_order_acq_rel) & kCount) != 0)
      words_[key].fetch_or(kRaced, std::memory_order_relaxed);
  }
  void end(std::uint64_t key) noexcept {
    words_[key].fetch_sub(1, std::memory_order_acq_rel);
  }

  bool raced(std::uint64_t key) const noexcept {
    return key < words_.size() &&
           (words_[key].load(std::memory_order_relaxed) & kRaced) != 0;
  }
  std::uint64_t raced_keys() const noexcept {
    std::uint64_t n = 0;
    for (const auto& w : words_) n += (w.load(std::memory_order_relaxed) & kRaced) != 0;
    return n;
  }

 private:
  static constexpr std::uint8_t kCount = 0x7f;  // writes in flight (<= clients)
  static constexpr std::uint8_t kRaced = 0x80;  // sticky
  std::vector<std::atomic<std::uint8_t>> words_;
};

/// One write's bracket; does nothing without a log.
class RaceScope {
 public:
  RaceScope(WriteRaceLog* log, std::uint64_t key) noexcept : log_(log), key_(key) {
    if (log_ != nullptr) log_->begin(key_);
  }
  ~RaceScope() {
    if (log_ != nullptr) log_->end(key_);
  }
  RaceScope(const RaceScope&) = delete;
  RaceScope& operator=(const RaceScope&) = delete;

 private:
  WriteRaceLog* log_;
  std::uint64_t key_;
};

}  // namespace perfbench
