// Tests of the benchmark's own code: order statistics, the seeded op
// stream and the write-race log.  Prints one line per failed check; exits non-zero on any.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "race_log.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void quantiles() {
  using perfbench::quantile;
  std::vector<double> empty;
  expect(quantile(empty, 0.5) == 0.0, "empty sample has quantile 0");
  std::vector<int> one{7};
  expect(quantile(one, 0.99) == 7.0, "single sample is every quantile");
  // Linear interpolation between closest ranks (numpy's default).
  std::vector<int> v{5, 1, 4, 2, 3};
  expect(near(quantile(v, 0.5), 3.0), "median of 1..5");
  expect(near(quantile(v, 0.25), 2.0), "first quartile of 1..5");
  expect(near(quantile(v, 0.0), 1.0) && near(quantile(v, 1.0), 5.0), "min and max");
  std::vector<double> w{10, 20, 30, 40};
  expect(near(quantile(w, 0.5), 25.0), "even-sized median interpolates");
  expect(near(quantile(w, 0.9), 37.0), "p90 of 10..40");
  std::vector<std::uint32_t> big(1000);
  for (std::uint32_t i = 0; i < big.size(); ++i) big[i] = 999 - i;
  expect(near(quantile(big, 0.99), 989.01), "p99 of 0..999");
  expect(near(perfbench::median(std::vector<double>{3, 1, 2}), 2.0), "median copies");
  const std::vector<double> series{1, 1, 2, 2, 3, 3, 4, 4};
  expect(near(perfbench::mean_of_span(series, 0.0, 0.25), 1.0), "first-quarter mean");
  expect(near(perfbench::mean_of_span(series, 0.75, 1.0), 4.0), "last-quarter mean");
}

void streams() {
  using namespace perfbench;
  for (const Spec& spec : kSpecs) {
    for (bool probes : {false, true}) {
      OpStream a(spec, 42, 1, probes), b(spec, 42, 1, probes), c(spec, 43, 1, probes),
          d(spec, 42, 2, probes);
      bool same = true, differs_seed = false, differs_client = false, in_range = true;
      bool puts_live = true;
      std::uint64_t counts[kOpKinds] = {};
      constexpr int kN = 200000;
      for (int i = 0; i < kN; ++i) {
        const Item x = a.next(), y = b.next(), z = c.next(), u = d.next();
        same = same && x.op == y.op && x.key == y.key && x.value == y.value && x.seq == y.seq;
        differs_seed = differs_seed || x.key != z.key;
        differs_client = differs_client || x.key != u.key;
        in_range = in_range && x.key >= 1 && x.key <= spec.key_range &&
                   value_matches(x.key, x.value);
        if (x.op == Op::kPut && spec.put_live_only)
          puts_live = puts_live && initially_live(spec, 42, x.key);
        ++counts[static_cast<int>(x.op)];
      }
      expect(same, "same seed and client give the same stream");
      expect(differs_seed, "another seed gives another stream");
      expect(differs_client, "another client gives another stream");
      expect(in_range, "keys in range and values encode their key");
      expect(puts_live, "live-only puts hit prefilled keys");
      int missing = 0;
      for (int k = 0; k < kOpKinds; ++k) missing += spec.mix[k] == 0 ? 1 : 0;
      for (int k = 0; k < kOpKinds; ++k) {
        const double share = static_cast<double>(counts[k]) / kN;
        double want = spec.mix[k] / 100.0;
        if (probes) want = spec.mix[k] == 0 ? 1.0 / 16 / missing : want * 15 / 16;
        expect(std::fabs(share - want) < 0.01, "op mix matches the spec");
        if (probes) expect(counts[k] > 0, "probes cover every op kind");
      }
    }
    const auto k1 = prefill_keys(spec, 7), k2 = prefill_keys(spec, 7), k3 = prefill_keys(spec, 8);
    expect(k1 == k2, "prefill is a function of the seed");
    expect(k1 != k3, "another seed prefills other keys");
    const double live = static_cast<double>(k1.size()) / static_cast<double>(spec.key_range);
    expect(std::fabs(live - spec.live_pct / 100.0) < 0.02,
           "live_pct of the key range is prefilled");
  }
}

void race_log() {
  perfbench::WriteRaceLog log(10);
  log.begin(3), log.end(3), log.begin(3), log.end(3);
  expect(!log.raced(3), "writes one after another do not race");
  log.begin(4), log.begin(5), log.end(4), log.end(5);
  expect(!log.raced(4) && !log.raced(5), "overlapping writes to other keys do not race");
  log.begin(7), log.begin(7), log.end(7), log.end(7);
  log.begin(7), log.end(7);
  expect(log.raced(7), "overlapping writes to one key race, and the mark sticks");
  {
    const perfbench::RaceScope a(&log, 9);
    const perfbench::RaceScope b(&log, 9);
    const perfbench::RaceScope none(nullptr, 9);
  }
  expect(log.raced(9) && log.raced_keys() == 2, "scopes bracket writes; two keys raced");
  expect(!log.raced(11), "keys past the range never raced");
}

}  // namespace

int main() {
  quantiles();
  streams();
  race_log();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
