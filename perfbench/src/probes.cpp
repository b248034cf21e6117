#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "src/fault/bioz.hpp"
#include "src/fault/plant.hpp"
#include "src/link/phy.hpp"
#include "src/magnetics/coil.hpp"
#include "src/magnetics/coupling.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace ironic;

namespace {

using Clock = std::chrono::steady_clock;

// Median wall time [s] of `reps` calls of fn(k), k = 0 .. reps-1.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int k = 0; k < reps; ++k) {
    const auto t0 = Clock::now();
    fn(k);
    samples.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return median(samples);
}

// Lateral offsets across the injector's misalignment envelope [m].
double envelope_offset(int k) { return 1e-3 * (1 + k % 10); }

// Two coaxial geometries queried alternately, so a last-geometry memo
// cannot turn the probe into a cache lookup.
double alternate_distance(double nominal, int k) {
  return nominal + (k % 2 == 0 ? 0.0 : 1e-3);
}

void link_probes(Outcome& out) {
  const auto inductive = link::make_backend("inductive");
  const link::LinkCondition nominal = inductive->nominal_condition();
  const double coaxial = median_seconds(200, [&](int k) {
    link::LinkCondition c = nominal;
    c.distance = alternate_distance(nominal.distance, k);
    (void)inductive->power_delivered(c);
  });
  // One misaligned query first: inside a fault window every query follows
  // another misaligned one.
  link::LinkCondition shifted = nominal;
  shifted.lateral_offset = envelope_offset(9);
  (void)inductive->power_delivered(shifted);
  const double misaligned = median_seconds(10, [&](int k) {
    link::LinkCondition c = nominal;
    c.lateral_offset = envelope_offset(k);
    (void)inductive->power_delivered(c);
  });

  const auto me = link::make_backend("me");
  const link::LinkCondition me_nominal = me->nominal_condition();
  const double me_query = median_seconds(200, [&](int k) {
    link::LinkCondition c = me_nominal;
    c.distance = alternate_distance(me_nominal.distance, k);
    (void)me->power_delivered(c);
  });

  out.metrics.push_back({"link.power_query_coaxial_us", coaxial * 1e6, "us"});
  out.metrics.push_back(
      {"link.power_query_misaligned_ms", misaligned * 1e3, "ms"});
  out.metrics.push_back({"link.power_query_me_us", me_query * 1e6, "us"});
}

void magnetics_probes(Outcome& out) {
  const magnetics::Coil tx(magnetics::patch_coil_spec());
  const magnetics::Coil rx(magnetics::implant_coil_spec());
  const double nominal = link::make_backend("inductive")->nominal_condition().distance;
  const double coaxial = median_seconds(200, [&](int k) {
    (void)magnetics::mutual_inductance(tx, rx, alternate_distance(nominal, k));
  });
  const double offset = median_seconds(10, [&](int k) {
    (void)magnetics::mutual_inductance(tx, rx, nominal, envelope_offset(k));
  });
  out.metrics.push_back({"magnetics.mutual_coaxial_us", coaxial * 1e6, "us"});
  out.metrics.push_back({"magnetics.mutual_offset_ms", offset * 1e3, "ms"});
}

void plant_probes(const std::shared_ptr<const spice::TransientCheckpoint>& charged,
                  Outcome& out) {
  const double drive = fault::ChargeUpSpec{}.amplitude;
  const auto fork = [&] {
    fault::RectifierPlant plant;
    plant.fork_from(charged, drive);
    return plant;
  };
  // Drive unchanged: one committed segment from the shared checkpoint.
  const double measure = median_seconds(10, [&](int) {
    fault::RectifierPlant plant = fork();
    (void)plant.measure(drive);
  });
  // Drive changed: a doomed half segment at the old drive, then the
  // restart from the committed checkpoint.
  const double restart = median_seconds(10, [&](int) {
    fault::RectifierPlant plant = fork();
    (void)plant.measure(0.85 * drive);
  });

  // The same segment through the engine, for its step and solver counts.
  spice::TransientStats stats;
  const double segment = median_seconds(10, [&](int) {
    auto circuit = fault::RectifierPlant::build(drive);
    spice::TransientOptions options;
    options.t_stop = charged->time + fault::RectifierPlant{}.segment_length;
    options.dt_max = 10e-9;
    options.record_every = 8;
    options.record_signals = {"v(r.vo)"};
    options.resume_from = charged.get();
    stats = spice::TransientStats{};
    spice::run_transient(*circuit, options, &stats);
  });

  const double bioz = median_seconds(5, [&](int) {
    fault::BioZPlant plant;
    (void)plant.measure(drive, 1.0);
  });
  const double capture = median_seconds(3, [&](int) {
    (void)fault::capture_charged_checkpoint(fault::ChargeUpSpec{}).time;
  });

  const auto count = [](std::size_t n) { return static_cast<double>(n); };
  out.metrics.push_back({"fault.charge_capture_ms", capture * 1e3, "ms"});
  out.metrics.push_back({"fault.plant_measure_ms", measure * 1e3, "ms"});
  out.metrics.push_back({"fault.plant_restart_ms", restart * 1e3, "ms"});
  out.metrics.push_back({"fault.bioz_measure_ms", bioz * 1e3, "ms"});
  out.metrics.push_back({"spice.segment_ms", segment * 1e3, "ms"});
  out.metrics.push_back(
      {"spice.steps_per_segment", count(stats.accepted_steps), "count"});
  out.metrics.push_back(
      {"spice.newton_iters_per_segment", count(stats.newton_iterations), "count"});
  out.metrics.push_back(
      {"spice.newton_iter_us",
       segment * 1e6 / count(std::max<std::size_t>(1, stats.newton_iterations)),
       "us"});
  out.metrics.push_back(
      {"linalg.factorizations_per_segment", count(stats.factorizations), "count"});
  out.metrics.push_back({"linalg.solves_per_segment", count(stats.solves), "count"});
  out.metrics.push_back({"linalg.factor_skips_per_segment",
                         count(stats.solves - stats.factorizations), "count"});
}

}  // namespace

void layer_probes(const std::shared_ptr<const spice::TransientCheckpoint>& charged,
                  Outcome& out) {
  link_probes(out);
  magnetics_probes(out);
  plant_probes(charged, out);
}

}  // namespace perfbench
