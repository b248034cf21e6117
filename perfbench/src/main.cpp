// perfbench: the repository's benchmark binary.
//
//   perfbench --workload fleet_lactate|fleet_behavioural|campaign_suite
//             --seed N --seconds S --trace 0|1
//   perfbench --selftest
//
// Prints progress, the simulated counts of every round and the check
// results, then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or the per-layer ones with --trace 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "magref.hpp"
#include "src/fleet/session.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       perfbench --selftest\n");
  return 2;
}

void print_result(const Outcome& out) {
  for (const auto& problem : out.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.problems.empty() ? "true" : "false", out.attempted,
              out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

// --- self-tests -------------------------------------------------------------

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

std::size_t beyond(const std::vector<double>& samples, double value) {
  std::size_t n = 0;
  for (double s : samples) n += s > value ? 1 : 0;
  return n;
}

void test_percentile_rule() {
  expect(tail_percentile(1) == 50.0 && tail_percentile(39) == 50.0,
         "below 40 samples the tail is the median");
  expect(tail_percentile(40) == 75.0, "40 samples: p75 leaves 10 beyond");
  expect(tail_percentile(100) == 90.0 && tail_percentile(5000) == 90.0,
         "100 samples and more: p90");
  bool all = true;
  for (std::size_t n = kMedianOnlyBelow; n <= 400; ++n) {
    const auto s = ramp(n);
    all = all && beyond(s, percentile(s, tail_percentile(n))) >= kTailSamples;
  }
  expect(all, "every count from 40 to 400 keeps 10 samples beyond the tail");
  expect(percentile({5, 1, 4, 2, 3}, 50.0) == 3.0 &&
             percentile({5, 1, 4, 2, 3}, 25.0) == 2.0,
         "percentile sorts and picks order statistics");
  expect(std::abs(percentile({0.0, 10.0}, 30.0) - 3.0) < 1e-12,
         "percentile interpolates linearly");
  expect(percentile({}, 50.0) == 0.0, "percentile of nothing is 0");
  expect(std::abs(hd_percentile(ramp(101), 50.0) - 51.0) < 1e-9,
         "Harrell-Davis median of a symmetric sample is its centre");
  const auto r = ramp(400);
  expect(std::abs(hd_percentile(r, 90.0) - percentile(r, 90.0)) < 0.5,
         "Harrell-Davis p90 of an even ramp meets the order-statistic p90");
  expect(std::abs(hd_percentile(std::vector<double>(50, 7.0), 90.0) - 7.0) < 1e-12,
         "Harrell-Davis weights sum to one");
  expect(hd_percentile({}, 90.0) == 0.0, "Harrell-Davis percentile of nothing is 0");
}

void test_session_count() {
  const std::size_t fewest = kMinRounds * kRoundSessions;
  const auto s = ramp(fewest);
  expect(tail_percentile(fewest) == 90.0 &&
             beyond(s, percentile(s, 90.0)) >= kTailSamples,
         "the shortest fleet run, " + std::to_string(kMinRounds) + " rounds of " +
             std::to_string(kRoundSessions) +
             " sessions, gives session_p90_ms its 10 samples");
  expect(kRoundSessions % ironic::fleet::default_cohorts().size() == 0,
         "every round holds the same number of sessions of each cohort");
}

void test_rates() {
  RunRate rate;
  rate.add(10, 1.0);
  rate.add(30, 2.0);
  expect(std::abs(rate.per_second() - 40.0 / 3.0) < 1e-12,
         "rates are whole-run totals over whole-run time, not a mean of rounds");
  expect(RunRate{}.per_second() == 0.0, "an empty run has rate 0");
}

void test_peak_rss() {
  const double before = peak_rss_mb();
  std::vector<char> block(64u << 20);
  for (std::size_t i = 0; i < block.size(); i += 4096) block[i] = 1;
  const double after = peak_rss_mb();
  expect(before > 0.0 && after - before > 48.0,
         "peak RSS grows by a touched 64 MiB block (" + std::to_string(before) +
             " -> " + std::to_string(after) + " MB)");
}

void test_round_seeds() {
  expect(round_seed(7, 0) == round_seed(7, 0) && round_seed(7, 0) != round_seed(7, 1) &&
             round_seed(7, 0) != round_seed(8, 0),
         "round seeds are a pure function of (seed, round) and distinct");
}

void test_magnetics_reference() {
  const double a = 11e-3, b = 4.9e-3, d = 6e-3;
  expect(std::abs(magref::offset_filaments(a, b, d, 1e-9) /
                      magref::coaxial_filaments(a, b, d) -
                  1.0) < 1e-9,
         "offset formula meets Maxwell's as the offset vanishes");
  const double ab = magref::offset_filaments(a, b, d, 7e-3);
  const double ba = magref::offset_filaments(b, a, d, 7e-3);
  expect(std::abs(ab / ba - 1.0) < 1e-12,
         "offset formula is reciprocal (M_ab == M_ba) at rho = 7 mm");
  const double touching = magref::offset_filaments(b, b, d, b);
  expect(std::isfinite(touching) && touching > 0.0,
         "offset formula is finite where the loop crosses the other's axis");

  double worst = 0.0;
  magref::EnvelopePoint at;
  for (const auto& p : magref::check_envelope(magref::envelope_distances(true),
                                              magref::envelope_offsets(true))) {
    if (p.rel_error >= worst) {
      worst = p.rel_error;
      at = p;
    }
  }
  std::printf("     largest relative error %.3e at d = %.1f mm, offset = %.1f mm\n",
              worst, at.distance * 1e3, at.offset * 1e3);
  expect(worst <= magref::kTolerance,
         "mutual_inductance within the stated tolerance over the envelope");
}

int selftest() {
  test_peak_rss();  // first, while the heap is still small
  test_percentile_rule();
  test_session_count();
  test_rates();
  test_round_seeds();
  test_magnetics_reference();
  std::printf("selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 0);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();
  try {
    const Outcome out = run_workload(options);
    print_result(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
