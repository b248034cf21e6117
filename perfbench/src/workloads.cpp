#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>

#include "magref.hpp"
#include "probes.hpp"
#include "src/fault/campaign.hpp"
#include "src/fault/plant.hpp"
#include "src/fleet/checkpoint.hpp"
#include "src/fleet/fleet.hpp"
#include "src/fleet/session.hpp"
#include "src/link/phy.hpp"
#include "src/util/rng.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace ironic;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Sessions replayed one by one in a traced campaign_suite run, where no
// fleet round exists to replay.
constexpr std::size_t kProbeSessions = 12;
// Scenarios per campaign in the traced fleet runs' campaign probe.
constexpr int kProbeScenarios = 2;

// Simulated totals of one round. A change that only makes the simulator
// faster leaves every one of these unchanged for the same round seed.
struct SimCounts {
  long long units = 0;  // sessions or scenarios
  long long exchanges = 0;
  long long completed = 0;
  long long lost = 0;
  long long retries = 0;
  long long checkpoints = 0;
  long long restarts = 0;
  long long adc_codes = 0;

  template <typename Result>
  void add(const Result& r) {
    ++units;
    exchanges += r.exchanges;
    completed += r.completed;
    lost += r.lost;
    retries += r.retries;
    checkpoints += r.checkpoints;
    restarts += r.restarts;
    adc_codes += static_cast<long long>(r.adc_codes.size());
  }
};

void print_counts(const std::string& label, std::size_t round,
                  std::uint64_t seed, const SimCounts& c) {
  std::printf(
      "counts %s round=%zu seed=0x%016llx units=%lld exchanges=%lld "
      "completed=%lld lost=%lld retries=%lld checkpoints=%lld restarts=%lld "
      "adc_codes=%lld\n",
      label.c_str(), round, static_cast<unsigned long long>(seed), c.units,
      c.exchanges, c.completed, c.lost, c.retries, c.checkpoints, c.restarts,
      c.adc_codes);
}

// Every exchange either delivered a measurement or lost it, and every
// delivered measurement carries exactly one ADC code.
template <typename Result>
void check_exchange_accounting(const Result& r, int expected_exchanges,
                               const std::string& where, Outcome& out) {
  if (r.exchanges != expected_exchanges || r.completed + r.lost != r.exchanges ||
      static_cast<long long>(r.adc_codes.size()) != r.completed) {
    out.problems.push_back(where + ": exchanges=" + std::to_string(r.exchanges) +
                           " completed=" + std::to_string(r.completed) +
                           " lost=" + std::to_string(r.lost) + " adc_codes=" +
                           std::to_string(r.adc_codes.size()));
  }
}

// --- set-up -----------------------------------------------------------------

// The fixtures every run builds before its timed phase: the single-worker
// FleetService and the shared charged checkpoint, captured through a
// fleet::CheckpointCache. Timed kSetupsBefore times before the first
// round and once more after every round, each time with fresh objects,
// so the median samples the host across the whole run rather than its
// first second. Set-ups between rounds are outside the rounds' timing.
struct Setup {
  std::vector<double> samples;
  std::shared_ptr<const spice::TransientCheckpoint> charged;

  void sample() {
    const auto t0 = Clock::now();
    fleet::FleetService service(1);
    fleet::CheckpointCache cache;
    charged = cache.charged(fault::ChargeUpSpec{});
    samples.push_back(since(t0));
  }
  double seconds() const { return median(samples); }
};

Setup measure_setup() {
  Setup setup;
  for (int k = 0; k < kSetupsBefore; ++k) setup.sample();
  return setup;
}

// --- checks shared by every workload -----------------------------------------

void check_common(const Setup& setup, Outcome& out) {
  for (const std::string& name : link::backend_names()) {
    const auto phy = link::make_backend(name);
    const double p = phy->power_delivered(phy->nominal_condition());
    if (p != phy->nominal_power()) {
      out.problems.push_back("link " + name +
                             ": power_delivered(nominal_condition()) != "
                             "nominal_power()");
    }
    if (name == "inductive" && std::abs(p - 15e-3) > 0.15e-3) {
      out.problems.push_back("link inductive: nominal power " +
                             std::to_string(p * 1e3) + " mW, expected 15 mW");
    }
  }

  const double drive = fault::ChargeUpSpec{}.amplitude;
  fault::RectifierPlant plant;
  plant.fork_from(setup.charged, drive);
  const double vo = plant.measure(drive);
  if (!(vo > 2.1 && vo < drive)) {
    out.problems.push_back("plant: settled Vo " + std::to_string(vo) +
                           " V outside (2.1 V, drive)");
  }

  double worst = 0.0;
  for (const auto& p : magref::check_envelope(magref::envelope_distances(false),
                                              magref::envelope_offsets(false))) {
    worst = std::max(worst, p.rel_error);
  }
  std::printf("check magnetics reference: worst relative error %.3e (tol %.0e)\n",
              worst, magref::kTolerance);
  if (!(worst <= magref::kTolerance)) {
    out.problems.push_back("magnetics: mutual_inductance off the reference by " +
                           std::to_string(worst));
  }
}

// --- fleets ------------------------------------------------------------------

fleet::FleetConfig fleet_config(std::uint64_t seed, fault::Workload workload,
                                std::size_t sessions) {
  fleet::FleetConfig config;
  config.sessions = sessions;
  config.threads = 1;
  config.seed = seed;
  config.exchanges = kFleetExchanges;
  for (auto& cohort : config.cohorts) cohort.workload = workload;
  return config;
}

// The spec the fleet gives session `index` of `config` (every cohort here
// is on the inductive backend, so the charge-up is the config's own).
fleet::SessionSpec session_spec(const fleet::FleetConfig& config,
                                std::uint64_t index) {
  fleet::SessionSpec spec;
  spec.seed = config.seed;
  spec.index = index;
  spec.exchanges = fleet::effective_exchanges(config);
  spec.cohort = config.cohorts[index % config.cohorts.size()];
  spec.charge = config.charge;
  spec.analysis_hints = config.analysis_hints;
  return spec;
}

struct Replay {
  std::vector<double> ms;  // per session, index order
  std::vector<std::uint64_t> fingerprints;
  double seconds = 0.0;

  void append(const Replay& more) {
    ms.insert(ms.end(), more.ms.begin(), more.ms.end());
    fingerprints.insert(fingerprints.end(), more.fingerprints.begin(),
                        more.fingerprints.end());
    seconds += more.seconds;
  }
};

// Drives the sessions of `config` one by one through run_patient_session,
// forking the shared checkpoint, and times each call.
Replay replay_sessions(const fleet::FleetConfig& config,
                       const std::shared_ptr<const spice::TransientCheckpoint>& charged) {
  Replay replay;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < config.sessions; ++i) {
    const fleet::SessionSpec spec = session_spec(config, i);
    const bool spice_plant =
        spec.cohort.workload == fault::Workload::kLactateSpice;
    const auto t0 = Clock::now();
    const fleet::SessionResult r = fleet::run_patient_session(
        spec, spice_plant ? charged : nullptr, nullptr);
    replay.ms.push_back(since(t0) * 1e3);
    replay.fingerprints.push_back(fleet::fingerprint_session(r));
  }
  replay.seconds = since(start);
  return replay;
}

// The per-cohort median session time of `timed` (the workload's own
// front end), and the plant's share: the median per-session difference
// between the same sessions on the spice and the behavioural front end.
void add_session_layer_metrics(const fleet::FleetConfig& config,
                               const Replay& timed, const Replay& lactate,
                               const Replay& behavioural, Outcome& out) {
  std::map<std::string, std::vector<double>> by_cohort;
  std::vector<double> plant_ms;
  for (std::size_t i = 0; i < timed.ms.size(); ++i) {
    by_cohort[config.cohorts[i % config.cohorts.size()].name].push_back(
        timed.ms[i]);
    plant_ms.push_back(lactate.ms[i] - behavioural.ms[i]);
  }
  for (const auto& cohort : config.cohorts) {
    out.metrics.push_back({"fleet.session_ms." + cohort.name,
                           median(by_cohort[cohort.name]), "ms"});
  }
  out.metrics.push_back({"fault.plant_ms_per_session", median(plant_ms), "ms"});
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Seeds drawn per round; the round runs the most typical candidate
// (typical_seed below).
constexpr std::uint64_t kSeedCandidates = 33;

// Exchanges, at the nominal cadence from t = 0, scheduled while a
// misalignment fault is active. Exposure sets a round's cost: a
// misaligned link power query costs hundreds of coaxial ones, so a
// Poisson-drawn exposure would swing a round's wall time by tens of
// percent from seed to seed.
long long misaligned_exchanges(const fault::FaultSchedule& schedule,
                               int exchanges) {
  const double cadence = link::nominal_profile("inductive").cadence_s;
  long long n = 0;
  for (int k = 0; k < exchanges; ++k) {
    n += schedule.active(fault::FaultKind::kMisalignment, k * cadence) != nullptr;
  }
  return n;
}

// What a round's seed draws that sets its cost, read from the session
// schedules alone; typical_seed matches every entry to the candidates'
// median.
using Profile = std::vector<double>;

// Misalignment onsets (its first start in a session) below which the
// fleet profile counts sessions. A session with an early onset sends
// most of its frames misaligned, so these counts set the slowest tenth
// of the round (session_p90_ms), which exposure alone leaves loose.
constexpr double kOnsetLimits[] = {0.25, 0.5, 1.0};

// A fleet round's profile: its misalignment exposure, then the number
// of sessions whose misalignment starts before each of kOnsetLimits.
Profile fleet_profile(std::uint64_t seed) {
  const fleet::FleetConfig config =
      fleet_config(seed, fault::Workload::kLactateSpice, kRoundSessions);
  Profile profile(1 + std::size(kOnsetLimits), 0.0);
  for (std::size_t i = 0; i < config.sessions; ++i) {
    const fleet::SessionSpec spec = session_spec(config, i);
    const fault::FaultSchedule schedule = fleet::make_session_schedule(spec);
    profile[0] += static_cast<double>(misaligned_exchanges(schedule, spec.exchanges));
    double onset = INFINITY;
    for (const auto& event : schedule.events()) {
      if (event.kind == fault::FaultKind::kMisalignment) {
        onset = std::min(onset, event.start);
      }
    }
    for (std::size_t k = 0; k < std::size(kOnsetLimits); ++k) {
      profile[1 + k] += onset < kOnsetLimits[k] ? 1.0 : 0.0;
    }
  }
  return profile;
}

// The only campaign with drawn misalignment is stochastic_soak. Its
// scenario schedules are drawn here the way run_campaign draws them
// (stream 1000 + scenario of the campaign seed, horizon 0.25 s per
// exchange + 1 s). Only the choice of seed reads them: were the
// campaign to draw differently, rounds would just lose the stratification.
Profile campaign_profile(std::uint64_t seed) {
  const int exchanges = fault::CampaignConfig{}.exchanges;
  long long exposure = 0;
  for (int i = 0; i < kCampaignScenarios; ++i) {
    util::Rng rng = util::Rng::stream(seed, 1000u + static_cast<unsigned>(i));
    fault::StochasticScheduleConfig config;
    config.horizon = 0.25 * exchanges + 1.0;
    exposure += misaligned_exchanges(fault::FaultSchedule::stochastic(rng, config),
                                     exchanges);
  }
  return {static_cast<double>(exposure)};
}

// The seed of round `round`: of kSeedCandidates seeds drawn from
// (seed, round), the one whose profile lies nearest the candidates'
// median profile, each entry's distance in units of its standard
// deviation over the candidates (the first such candidate on a tie).
// Every round then carries the misalignment fault at its typical rate
// and onset; everything else about the inputs still varies with the seed.
std::uint64_t typical_seed(std::uint64_t seed, std::size_t round,
                           Profile (*profile)(std::uint64_t)) {
  std::vector<std::uint64_t> seeds;
  std::vector<Profile> profiles;
  for (std::uint64_t j = 0; j < kSeedCandidates; ++j) {
    seeds.push_back(round_seed(seed, round * kSeedCandidates + j));
    profiles.push_back(profile(seeds.back()));
  }
  std::vector<double> distance(seeds.size(), 0.0);
  for (std::size_t k = 0; k < profiles.front().size(); ++k) {
    std::vector<double> column;
    for (const Profile& p : profiles) column.push_back(p[k]);
    const double mid = median(column);
    double mean = 0.0;
    for (double v : column) mean += v / static_cast<double>(column.size());
    double var = 0.0;
    for (double v : column) var += (v - mean) * (v - mean) / static_cast<double>(column.size());
    if (var <= 0.0) continue;
    for (std::size_t j = 0; j < seeds.size(); ++j) {
      distance[j] += std::abs(column[j] - mid) / std::sqrt(var);
    }
  }
  const auto nearest = std::min_element(distance.begin(), distance.end());
  return seeds[static_cast<std::size_t>(nearest - distance.begin())];
}

std::string profile_text(const Profile& profile) {
  std::string text = "misaligned_exchanges=" + std::to_string(std::lround(profile[0]));
  for (std::size_t k = 1; k < profile.size(); ++k) {
    char item[48];
    std::snprintf(item, sizeof item, " onset_below_%gs=%ld", kOnsetLimits[k - 1],
                  std::lround(profile[k]));
    text += item;
  }
  return text;
}

// True when another round is expected to end no more than half a round
// past the requested measuring time.
bool another_round(double elapsed, std::size_t rounds, double seconds) {
  const double mean_round = elapsed / static_cast<double>(rounds);
  return elapsed + 0.5 * mean_round < seconds;
}

void add_campaign_metric(const std::string& name, double ms_per_scenario,
                         Outcome& out) {
  out.metrics.push_back({"fault.campaign_ms." + name, ms_per_scenario, "ms"});
}

// The per-campaign layer figures for a run that is not campaign_suite:
// every campaign at kProbeScenarios scenarios, timed per scenario.
void campaign_probe(std::uint64_t seed, Outcome& out) {
  for (const std::string& name : fault::campaign_names()) {
    fault::CampaignConfig config;
    config.name = name;
    config.seed = seed;
    config.scenarios = kProbeScenarios;
    const auto t0 = Clock::now();
    fault::run_campaign(config);
    add_campaign_metric(name, since(t0) * 1e3 / kProbeScenarios, out);
  }
}

Outcome run_fleet(const RunOptions& options, fault::Workload workload) {
  Outcome out;
  Setup setup = measure_setup();

  fleet::FleetService service(1);
  {
    // Primes the service's checkpoint cache outside the timed phase.
    fleet::FleetConfig primer = fleet_config(options.seed, workload, 1);
    primer.exchanges = 1;
    service.run(primer);
  }

  RunRate sessions;
  std::vector<double> session_ms;
  std::vector<fleet::FleetConfig> rounds;
  std::vector<std::uint64_t> fingerprints;  // every round's, in order
  const auto start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const fleet::FleetConfig config =
        fleet_config(typical_seed(options.seed, round, fleet_profile), workload,
                     kRoundSessions);
    const auto t0 = Clock::now();
    const fleet::FleetResult result = service.run(config);
    sessions.add(static_cast<double>(config.sessions), since(t0));

    SimCounts counts;
    for (std::size_t i = 0; i < result.sessions.size(); ++i) {
      const auto& s = result.sessions[i];
      ++out.attempted;
      if (!result.health[i].ok) {
        ++out.failed;
        continue;
      }
      counts.add(s);
      session_ms.push_back(s.wall_seconds * 1e3);
      check_exchange_accounting(s, kFleetExchanges,
                                "round " + std::to_string(round) + " session " +
                                    std::to_string(i),
                                out);
    }
    print_counts(options.workload, round, config.seed, counts);
    std::printf("profile round=%zu %s\n", round,
                profile_text(fleet_profile(config.seed)).c_str());
    rounds.push_back(config);
    for (const auto& h : result.health) fingerprints.push_back(h.fingerprint);

    setup.sample();
    if (round + 1 >= kMinRounds &&
        (options.trace || !another_round(since(start), round + 1, options.seconds))) {
      break;
    }
  }
  std::printf("timed %zu sessions in %zu rounds, %.3f s; tail percentile p%.1f\n",
              session_ms.size(), rounds.size(), sessions.seconds,
              tail_percentile(session_ms.size()));
  std::printf("setup %.6f s (median of %zu)\n", setup.seconds(),
              setup.samples.size());

  // Sampled sessions of the first round, one per cohort, re-run alone
  // with a private charge-up, must be bit-identical to their fleet runs.
  const fleet::FleetConfig& first = rounds.front();
  const std::size_t n_cohorts = first.cohorts.size();
  for (std::size_t c = 0; c < n_cohorts; ++c) {
    const std::size_t per_cohort = kRoundSessions / n_cohorts;
    const std::uint64_t index =
        c + n_cohorts * (splitmix64(options.seed + c) % per_cohort);
    const auto solo = fleet::run_solo_session(first, index);
    if (fleet::fingerprint_session(solo) != fingerprints[index]) {
      out.problems.push_back("session " + std::to_string(index) +
                             " differs from its solo run");
    }
  }
  check_common(setup, out);

  if (!options.trace) {
    out.metrics = {
        {"sessions_per_s", sessions.per_second(), "1/s"},
        {"session_p50_ms", median(session_ms), "ms"},
        {"session_p90_ms",
         hd_percentile(session_ms, tail_percentile(session_ms.size())), "ms"},
        {"setup_s", setup.seconds(), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return out;
  }

  // Traced: replay the timed rounds session by session, then the same
  // sessions on the other lactate front end, so the difference is the
  // plant's time.
  const bool lactate = workload == fault::Workload::kLactateSpice;
  Replay own;
  Replay twin;
  for (const fleet::FleetConfig& config : rounds) {
    own.append(replay_sessions(config, setup.charged));
    fleet::FleetConfig other = config;
    for (auto& cohort : other.cohorts) {
      cohort.workload = lactate ? fault::Workload::kLactateBehavioural
                                : fault::Workload::kLactateSpice;
    }
    twin.append(replay_sessions(other, setup.charged));
  }
  if (own.fingerprints != fingerprints) {
    out.problems.push_back("traced sessions differ from the timed run");
  }
  std::printf("trace overhead: replay %.3f s against timed rounds %.3f s (%+.2f%%)\n",
              own.seconds, sessions.seconds,
              (own.seconds / sessions.seconds - 1.0) * 100.0);
  add_session_layer_metrics(first, own, lactate ? own : twin,
                            lactate ? twin : own, out);
  campaign_probe(first.seed, out);
  layer_probes(setup.charged, out);
  return out;
}

// --- campaigns ---------------------------------------------------------------

Outcome run_campaigns(const RunOptions& options) {
  Outcome out;
  Setup setup = measure_setup();

  RunRate scenarios;
  RunRate exchanges;
  // Per scenario: a campaign call's wall time split evenly over its
  // scenarios (run_campaign times no single scenario).
  std::vector<double> scenario_ms;
  const auto start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const std::uint64_t seed =
        typical_seed(options.seed, round, campaign_profile);
    std::printf("profile round=%zu %s\n", round,
                profile_text(campaign_profile(seed)).c_str());
    for (const std::string& name : fault::campaign_names()) {
      fault::CampaignConfig config;
      config.name = name;
      config.seed = seed;
      config.scenarios = kCampaignScenarios;
      config.threads = 1;
      out.attempted += config.scenarios;
      fault::CampaignResult result;
      const auto t0 = Clock::now();
      try {
        result = fault::run_campaign(config);
      } catch (const std::exception& e) {
        out.failed += config.scenarios;
        std::printf("FAILED %s round=%zu: %s\n", name.c_str(), round, e.what());
        continue;
      }
      const double wall = since(t0);
      scenarios.add(config.scenarios, wall);
      exchanges.add(result.total_exchanges, wall);
      scenario_ms.insert(scenario_ms.end(), config.scenarios,
                         wall * 1e3 / config.scenarios);
      if (options.trace) add_campaign_metric(name, scenario_ms.back(), out);

      SimCounts counts;
      for (const auto& s : result.scenarios) {
        counts.add(s);
        const std::string where = name + " scenario " + std::to_string(s.index);
        if (name != "brownout_shedding") {
          check_exchange_accounting(s, config.exchanges, where, out);
        } else if (s.lost != 0 || s.completed > s.exchanges ||
                   !s.adc_codes.empty()) {
          // A patch mission: shed measurements are graceful degradation,
          // so nothing is lost and no ADC code is emitted.
          out.problems.push_back(where + ": brownout mission lost " +
                                 std::to_string(s.lost) + " or emitted codes");
        }
      }
      if (counts.units != config.scenarios ||
          counts.exchanges != result.total_exchanges ||
          counts.lost != result.lost_measurements) {
        out.problems.push_back(name + ": scenario totals disagree with the result");
      }
      if (name == "ask_burst_coupling_drop" &&
          (result.lost_measurements != 0 || result.recovery_rate != 1.0)) {
        out.problems.push_back(name + ": lost " +
                               std::to_string(result.lost_measurements) +
                               " measurements, recovery rate " +
                               std::to_string(result.recovery_rate));
      }
      print_counts(name, round, seed, counts);
      std::printf("wall %s round=%zu %.3f s\n", name.c_str(), round, wall);
    }
    setup.sample();
    if (options.trace || !another_round(since(start), round + 1, options.seconds)) {
      break;
    }
  }
  std::printf("timed %zu scenarios in %.3f s; tail percentile p%.1f\n",
              scenario_ms.size(), scenarios.seconds,
              tail_percentile(scenario_ms.size()));
  std::printf("setup %.6f s (median of %zu)\n", setup.seconds(),
              setup.samples.size());
  check_common(setup, out);

  if (!options.trace) {
    out.metrics = {
        {"sessions_per_s", scenarios.per_second(), "1/s"},
        {"session_p50_ms", median(scenario_ms), "ms"},
        {"session_p90_ms",
         hd_percentile(scenario_ms, tail_percentile(scenario_ms.size())), "ms"},
        {"exchanges_per_s", exchanges.per_second(), "1/s"},
        {"setup_s", setup.seconds(), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return out;
  }

  // No fleet round here: the session layers come from a short replay of
  // the stock fleet on both lactate front ends.
  const std::uint64_t seed = typical_seed(options.seed, 0, fleet_profile);
  const auto lactate_config =
      fleet_config(seed, fault::Workload::kLactateSpice, kProbeSessions);
  const Replay lactate = replay_sessions(lactate_config, setup.charged);
  const Replay behavioural = replay_sessions(
      fleet_config(seed, fault::Workload::kLactateBehavioural, kProbeSessions),
      setup.charged);
  add_session_layer_metrics(lactate_config, lactate, lactate, behavioural, out);
  layer_probes(setup.charged, out);
  return out;
}

}  // namespace

std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  return splitmix64(splitmix64(seed) + round);
}

Outcome run_workload(const RunOptions& options) {
  if (options.workload == "fleet_lactate") {
    return run_fleet(options, fault::Workload::kLactateSpice);
  }
  if (options.workload == "fleet_behavioural") {
    return run_fleet(options, fault::Workload::kLactateBehavioural);
  }
  if (options.workload == "campaign_suite") return run_campaigns(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
