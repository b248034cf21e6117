#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

namespace perfbench {

double tail_percentile(std::size_t samples) {
  if (samples < kMedianOnlyBelow) return 50.0;
  const double n = static_cast<double>(samples);
  return std::min(90.0, 100.0 * (1.0 - static_cast<double>(kTailSamples) / n));
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - std::floor(pos));
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double hd_percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const double q = std::clamp(p, 1e-9, 100.0 - 1e-9) / 100.0;
  const double a = q * static_cast<double>(n + 1);
  const double b = (1.0 - q) * static_cast<double>(n + 1);
  const double log_norm = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
  const auto density = [&](double x) {
    return std::exp(log_norm + (a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x));
  };
  // Each order statistic's weight by the midpoint rule on its interval;
  // normalising the weights absorbs the rule's error.
  constexpr int kPoints = 32;
  const double width = 1.0 / static_cast<double>(n);
  double weighted = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double w = 0.0;
    for (int k = 0; k < kPoints; ++k) {
      w += density((static_cast<double>(i) + (k + 0.5) / kPoints) * width);
    }
    weighted += w * samples[i];
    total += w;
  }
  return weighted / total;
}

double peak_rss_mb() {
  // VmHWM is this process image's own high-water mark. getrusage's
  // ru_maxrss is not: exec folds in the peak of the process image it
  // replaced, so a benchmark started from a larger parent (the Python
  // launcher, run.py) would report the parent's size.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: kB
}

}  // namespace perfbench
