// One patient pipeline: the paper's chain for one patient, from the
// patch's power link to the implant's ADC code. Campaign scenarios and
// fleet sessions are both thin callers of it.
//
// Per measurement: a LinkPhy backend delivers power under the injector-
// perturbed geometry; that power sets the physical BER of both channels
// (fault wrapper inside, the backend's modulation outside) and the
// implant's compensated drive; the drive runs the workload (rectifier
// transient, its behavioural stand-in, or the bio-impedance ladder); the
// LDO's regulation is checked under the injected rail scale; and the
// 12-bit code travels back over the resilient session layer.
//
// Determinism: the tally is a pure function of the inputs. The three RNG
// lanes are the only randomness and the caller derives them (campaigns
// key them by Rng::stream(seed, 3i + k), fleets by hashed_stream(seed,
// i).split()); the latency histogram and the per-exchange hook never
// feed back into the tally.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/plant.hpp"
#include "src/fault/schedule.hpp"
#include "src/fault/session.hpp"
#include "src/obs/metrics.hpp"
#include "src/spice/engine.hpp"
#include "src/util/rng.hpp"

namespace ironic::fault {

// The stock downlink-rate ladder, relative to the backend's nominal
// rate: the inductive link's 100 / 50 / 25 / 12.5 kbit/s.
inline const std::vector<double> kRelativeRateLadder = {1.0, 0.5, 0.25, 0.125};

// What one pipeline run produced. Every field but power_queries is
// deterministic and feeds the campaign and fleet fingerprints.
struct PipelineTally {
  int exchanges = 0;   // measurement exchanges attempted
  int completed = 0;   // exchanges that delivered data
  int lost = 0;        // exchanges abandoned -> lost measurements
  int retries = 0;
  int recovered = 0;   // exchanges that needed >= 1 retry yet completed
  double recover_seconds = 0.0;  // elapsed summed over recovered exchanges
  double backoff_seconds = 0.0;
  int rate_fallbacks = 0;
  int rate_recoveries = 0;
  int restarts = 0;     // spice segments re-run from a committed checkpoint
  int checkpoints = 0;  // committed checkpoints (bioz: measurements)
  int ldo_violations = 0;
  double final_rate = 0.0;  // [bit/s] session rate at the end
  double sim_time = 0.0;    // SimClock at the end [s]
  std::array<std::uint64_t, kFaultKindCount> faults_injected{};
  std::vector<std::uint16_t> adc_codes;  // one per completed measurement
  // LinkPhy power queries served (telemetry only, never fingerprinted).
  std::uint64_t power_queries = 0;
};

struct PatientPipeline {
  std::string backend = "inductive";  // see link::backend_names()
  FaultSchedule schedule;
  // session.rate_ladder holds rungs relative to the backend's nominal
  // rate, each in (0, 1]; run() scales them. Power-of-two rungs keep
  // every product exact.
  SessionOptions session = [] {
    SessionOptions options;
    options.rate_ladder = kRelativeRateLadder;
    return options;
  }();
  Workload workload = Workload::kLactateSpice;
  bool analysis_hints = false;
  int exchanges = 0;
  util::Rng injector_rng;
  util::Rng channel_rng;
  util::Rng session_rng;
  // The charged operating point the rectifier plant forks copy-on-write,
  // captured at drive `charged_amplitude`; nullptr starts it cold.
  std::shared_ptr<const spice::TransientCheckpoint> charged;
  double charged_amplitude = 0.0;
  // Observes each exchange's SimClock latency when set.
  obs::Histogram* latency = nullptr;
  // Called with the exchange index before each exchange; may throw to
  // abandon the run (the fleet's watchdog poll and chaos actions).
  std::function<void(int exchange)> before_exchange;

  // Runs the exchanges. Throws std::invalid_argument on an unknown
  // backend or a rung outside (0, 1].
  PipelineTally run() const;
};

}  // namespace ironic::fault
