#include "src/fault/pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/comms/protocol.hpp"
#include "src/fault/bioz.hpp"
#include "src/fault/injector.hpp"
#include "src/link/phy.hpp"
#include "src/pm/regulator.hpp"

namespace ironic::fault {

PipelineTally PatientPipeline::run() const {
  PipelineTally tally;

  SimClock clock;
  FaultInjector injector(&schedule, &clock, injector_rng);
  util::Rng channel = channel_rng;
  LinkBudget budget(backend);
  const double sensitivity = budget.p_nominal / 8.0;  // snr 8 when nominal
  const double cadence = budget.nominal().cadence_s;

  SessionOptions options = session;
  for (double& rung : options.rate_ladder) {
    if (!(rung > 0.0 && rung <= 1.0)) {
      throw std::invalid_argument(
          "PatientPipeline: rate ladder rungs are fractions of the nominal "
          "rate, in (0, 1]");
    }
    rung *= budget.nominal().rate_bps;
  }

  RectifierPlant plant;
  plant.carrier_hz = budget.nominal().carrier_hz;
  plant.analysis_hints = analysis_hints;
  if (charged != nullptr) plant.fork_from(charged, charged_amplitude);
  BioZPlant bioz;
  bioz.analysis_hints = analysis_hints;
  const pm::LdoModel ldo;

  const auto make_factory = [&](LinkDirection direction) -> ChannelFactory {
    return [&, direction](double rate) -> comms::Channel {
      comms::Channel physical = [&, rate](const comms::Bits& bits) {
        const double ber = budget.bit_error_rate(budget.power_now(injector),
                                                 sensitivity, rate);
        comms::Bits out = bits;
        for (std::size_t i = 0; i < out.size(); ++i) {
          if (channel.bernoulli(ber)) out[i] = !out[i];
        }
        return out;
      };
      // Fault wrapper inside, backend modulation outside: burst faults
      // corrupt the backend's channel symbols (PWM chips on the ME
      // uplink), and the codec gets to absorb what it can.
      comms::Channel faulted = injector.wrap(std::move(physical), direction);
      return direction == LinkDirection::kUplink
                 ? budget.phy->wrap_uplink(std::move(faulted))
                 : budget.phy->wrap_downlink(std::move(faulted));
    };
  };

  const auto handler = [&](const comms::Request& request) -> comms::Response {
    comms::Response response;
    response.ok = true;
    if (request.command == comms::Command::kMeasure) {
      tally_active(injector, schedule, clock.now());
      const double power = budget.power_now(injector);
      const double amplitude = budget.drive_amplitude(power, injector);
      double vo = 0.0;    // what the ADC digitizes
      double rail = 0.0;  // what the LDO regulates
      switch (workload) {
        case Workload::kLactateSpice:
          vo = plant.measure(amplitude);
          rail = vo;
          break;
        case Workload::kLactateBehavioural:
          // Behavioural front end for the soak: peak minus a diode
          // drop, clamped at the four-diode chain voltage.
          vo = std::clamp(amplitude - 0.75, 0.0, 3.0);
          rail = vo;
          break;
        case Workload::kBioZ:
          // The sense tap is a tissue voltage, not the supply: the rail
          // the LDO sees is the behavioural rectifier output.
          vo = bioz.measure(amplitude,
                            bioz_tissue_scale(injector.tissue_thickness()));
          rail = std::clamp(amplitude - 0.75, 0.0, 3.0);
          break;
      }
      if (!ldo.in_regulation(rail * injector.rail_scale())) {
        ++tally.ldo_violations;
      }
      const std::uint16_t code = adc_code(vo);
      response.payload = {static_cast<std::uint8_t>(code >> 8),
                          static_cast<std::uint8_t>(code & 0xff)};
    }
    return response;
  };

  Session link_session(make_factory(LinkDirection::kDownlink),
                       make_factory(LinkDirection::kUplink), handler, &clock,
                       session_rng, std::move(options));

  for (int i = 0; i < exchanges; ++i) {
    if (before_exchange) before_exchange(i);
    const auto outcome = link_session.exchange(comms::Command::kMeasure);
    ++tally.exchanges;
    if (latency != nullptr) latency->observe(outcome.elapsed);
    if (outcome.ok && outcome.response->payload.size() >= 2) {
      ++tally.completed;
      tally.adc_codes.push_back(static_cast<std::uint16_t>(
          (outcome.response->payload[0] << 8) | outcome.response->payload[1]));
    } else {
      ++tally.lost;
    }
    clock.advance(cadence);
  }

  const auto& stats = link_session.stats();
  tally.retries = stats.retries;
  tally.recovered = stats.recovered;
  tally.recover_seconds = stats.recover_seconds;
  tally.backoff_seconds = stats.backoff_seconds;
  tally.rate_fallbacks = stats.rate_fallbacks;
  tally.rate_recoveries = stats.rate_recoveries;
  tally.restarts = plant.restarts;
  // The bio-impedance plant is stateless; its committed work is the
  // measurement count, reported in the same column.
  tally.checkpoints =
      workload == Workload::kBioZ ? bioz.measurements : plant.checkpoints;
  tally.final_rate = link_session.current_rate();
  tally.sim_time = clock.now();
  for (int k = 0; k < kFaultKindCount; ++k) {
    tally.faults_injected[static_cast<std::size_t>(k)] =
        injector.injected(static_cast<FaultKind>(k));
  }
  tally.power_queries = budget.power_queries;
  return tally;
}

}  // namespace ironic::fault
