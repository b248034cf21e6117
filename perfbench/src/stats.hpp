// Statistics the benchmark reports: the tail-percentile rule, whole-run
// rates, and the process high-water mark. Kept apart from the workloads
// so the self-tests can pin each rule on synthetic inputs.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

// Samples that must lie beyond a reported tail percentile, and the
// sample count below which only the median is reported.
inline constexpr std::size_t kTailSamples = 10;
inline constexpr std::size_t kMedianOnlyBelow = 40;

// The percentile reported as a run's tail: the highest one (capped at
// 90) that still leaves kTailSamples samples above it, or 50 when there
// are fewer than kMedianOnlyBelow samples.
double tail_percentile(std::size_t samples);

// Percentile `p` in [0, 100] of a sample set by linear interpolation
// between order statistics. 0 on an empty set.
double percentile(std::vector<double> samples, double p);

// Median of a sample set (percentile 50).
double median(std::vector<double> samples);

// Percentile `p` in (0, 100) by the Harrell-Davis estimator: a weighted
// mean of all order statistics, order statistic i weighted by the mass
// the Beta(p (n + 1), (1 - p)(n + 1)) distribution puts on
// ((i - 1) / n, i / n]. In a sparse tail it is steadier than the single
// order statistic `percentile` interpolates. 0 on an empty set.
double hd_percentile(std::vector<double> samples, double p);

// Items completed per second over a whole run: the summed counts over
// the summed wall time, never a mean of per-round rates.
struct RunRate {
  double count = 0.0;
  double seconds = 0.0;
  void add(double items, double wall_seconds) {
    count += items;
    seconds += wall_seconds;
  }
  double per_second() const { return seconds > 0.0 ? count / seconds : 0.0; }
};

// The process's peak resident set size so far [MB] (VmHWM).
double peak_rss_mb();

}  // namespace perfbench
