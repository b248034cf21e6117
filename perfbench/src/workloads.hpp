// The benchmark's workloads, their timed phases, their output checks and
// the traced (per-layer) mode. Every workload runs on one inline worker
// and calls only the library's public entry points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Sessions per fleet round, ten per stock cohort. Each round draws its
// own seed, so a run of many short rounds averages many independent
// fault draws and ends close to the requested time.
inline constexpr std::size_t kRoundSessions = 30;
// Rounds every fleet run makes, however short --seconds is: together
// they leave more than kTailSamples sessions above session_p90_ms (see
// stats.hpp).
inline constexpr std::size_t kMinRounds = 4;
inline constexpr int kFleetExchanges = 4;
// Scenarios per campaign per round, the same for all five campaigns.
inline constexpr int kCampaignScenarios = 4;
// Set-ups timed before the first round; one more follows every round,
// and setup_s is the median of them all.
inline constexpr int kSetupsBefore = 3;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  long long attempted = 0;  // sessions or scenarios
  long long failed = 0;
  std::vector<std::string> problems;  // failed output checks
  std::vector<Metric> metrics;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

// Runs one workload; prints progress and the simulated counts of every
// round to stdout, and returns the metrics (end-to-end, or per-layer
// when traced) with the check results.
Outcome run_workload(const RunOptions& options);

// The round seed: round `r` of a run seeded `seed`.
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round);

}  // namespace perfbench
