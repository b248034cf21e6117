// Link tuning workbench: explore coil placement and matching — the
// day-to-day questions of an implant power-link designer (paper Sec. III
// calls patch wearability and receiver miniaturization "still an open
// research topic").
#include <iostream>
#include <memory>
#include <vector>

#include "src/link/phy.hpp"
#include "src/magnetics/coupling.hpp"
#include "src/magnetics/link.hpp"
#include "src/rf/classe.hpp"
#include "src/rf/matching.hpp"
#include "src/util/table.hpp"

#include "src/obs/report.hpp"

using namespace ironic;

// Every registered LinkPhy backend side by side: operating point,
// modulation pair, and the power/efficiency falloff with depth — the
// comparison the paper frames as inductive vs. emerging transducers.
void backend_survey() {
  std::cout << "\nLinkPhy backend survey:\n";
  util::Table profile({"backend", "downlink", "uplink", "rate (bit/s)",
                       "drive (V)", "cadence (s)", "P_nominal (mW)"});
  std::vector<std::unique_ptr<link::LinkPhy>> backends;
  for (const auto& name : link::backend_names()) {
    backends.push_back(link::make_backend(name));
    auto& phy = *backends.back();
    profile.add_row({name, phy.downlink_modulation(), phy.uplink_modulation(),
                     util::Table::cell(phy.nominal().rate_bps, 4),
                     util::Table::cell(phy.nominal().drive_v, 3),
                     util::Table::cell(phy.nominal().cadence_s, 3),
                     util::Table::cell(phy.nominal_power() * 1e3, 4)});
  }
  profile.print(std::cout);

  for (auto& phy : backends) {
    std::cout << "\n  " << phy->name()
              << ": power vs depth (lateral offset 0 / 6 mm):\n";
    util::Table falloff({"extra depth (mm)", "P (mW)", "eff (%)",
                         "P @6mm off (mW)"});
    for (double extra : {0.0, 4.0, 8.0, 12.0, 20.0}) {
      link::LinkCondition cond = phy->nominal_condition();
      cond.distance += extra * 1e-3;
      const double p_axis = phy->power_delivered(cond);
      const double eff = phy->efficiency(cond);
      cond.lateral_offset = 6e-3;
      const double p_off = phy->power_delivered(cond);
      falloff.add_row({util::Table::cell(extra, 3),
                       util::Table::cell(p_axis * 1e3, 4),
                       util::Table::cell(eff * 100.0, 3),
                       util::Table::cell(p_off * 1e3, 4)});
    }
    falloff.print(std::cout);
  }
}

int main() {
  ironic::obs::RunReport run_report("link_tuning");
  std::cout << "Inductive-link tuning workbench\n\n";

  const magnetics::Coil patch{magnetics::patch_coil_spec()};
  const magnetics::Coil implant{magnetics::implant_coil_spec()};
  util::Table coils({"coil", "L (uH)", "R_ac @5MHz (Ohm)", "Q @5MHz", "SRF (MHz)"});
  const auto coil_row = [&](const char* name, const magnetics::Coil& c) {
    coils.add_row({name, util::Table::cell(c.inductance() * 1e6, 4),
                   util::Table::cell(c.ac_resistance(5e6), 3),
                   util::Table::cell(c.quality_factor(5e6), 3),
                   util::Table::cell(c.self_resonance_frequency() / 1e6, 3)});
  };
  coil_row("patch (22 mm spiral)", patch);
  coil_row("implant (38x2 mm, 8-layer)", implant);
  coils.print(std::cout);

  std::cout << "\nPlacement sweep (efficiency at the optimal load):\n";
  util::Table place({"distance (mm)", "offset (mm)", "k", "efficiency (%)",
                     "drive for 5 mW (V)"});
  magnetics::InductiveLink link{magnetics::LinkConfig{}};
  for (double d : {4.0, 6.0, 10.0, 17.0}) {
    for (double off : {0.0, 8.0}) {
      link.set_geometry(d * 1e-3, off * 1e-3);
      const double rl = link.optimal_load_resistance();
      const auto a = link.analyze(1.0, rl);
      place.add_row({util::Table::cell(d, 3), util::Table::cell(off, 3),
                     util::Table::cell(a.coupling, 3),
                     util::Table::cell(a.efficiency * 100.0, 3),
                     util::Table::cell(link.drive_for_power(5e-3, rl), 3)});
    }
  }
  place.print(std::cout);

  std::cout << "\nSecondary-side matching (CA/CB) options at 5 MHz, rectifier\n"
            << "average impedance 150 Ohm:\n";
  util::Table match({"target R at coil (Ohm)", "CA (pF)", "CB (pF)", "Q"});
  for (double rt : {2.0, 4.0, 8.0, 15.0}) {
    try {
      const auto m = rf::design_capacitive_match(implant.inductance(), 150.0, rt, 5e6);
      match.add_row({util::Table::cell(rt, 3), util::Table::cell(m.series_c * 1e12, 4),
                     util::Table::cell(m.shunt_c * 1e12, 4),
                     util::Table::cell(m.q, 3)});
    } catch (const std::invalid_argument&) {
      match.add_row({util::Table::cell(rt, 3), "infeasible", "-", "-"});
    }
  }
  match.print(std::cout);

  std::cout << "\nClass-E transmitter for the reflected load at 6 mm:\n";
  link.set_geometry(6e-3, 0.0);
  const auto analysis = link.analyze(1.0, link.optimal_load_resistance());
  const double omega_m = 2.0 * 3.14159265358979 * 5e6 * analysis.mutual;
  const double reflected =
      omega_m * omega_m /
      (implant.ac_resistance(5e6) + link.optimal_load_resistance());
  rf::ClassESpec pa;
  pa.load_resistance = reflected;
  pa.supply_voltage = 0.6;
  const auto design = rf::design_class_e(pa);
  std::cout << "  reflected load " << util::format_si(reflected, "Ohm")
            << " -> C_shunt " << util::format_si(design.shunt_capacitance, "F")
            << ", C_series " << util::format_si(design.series_capacitance, "F")
            << ", L_tank " << util::format_si(design.series_inductance, "H")
            << ", P_out " << util::format_si(design.output_power, "W") << "\n";

  backend_survey();
  return 0;
}
