// E2 — Sec. III-B: received power vs coil distance, air vs beef sirloin.
// Paper anchors: 15 mW at 6 mm in air (maximum transmitter setting);
// 1.17 mW through a 17 mm sirloin slab, "similar to that obtained in
// air" at 17 mm.
//
// The distance table runs as a declarative exec::Sweep, once serially and
// once on the work-stealing pool; the run aborts if the two renderings
// differ by a single byte (the exec determinism contract).
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "src/exec/exec.hpp"
#include "src/magnetics/link.hpp"
#include "src/util/table.hpp"

#include "src/obs/report.hpp"

using namespace ironic;

namespace {

std::string render_csv(const util::Table& table) {
  std::ostringstream os;
  table.print_csv(os);
  return os.str();
}

}  // namespace

int main() {
  ironic::obs::RunReport run_report("power_distance");
  std::cout << "E2 — received power vs distance (fixed transmitter setting)\n"
            << "Paper: 15 mW @ 6 mm (air); 1.17 mW @ 17 mm (sirloin ~ air).\n\n";

  magnetics::LinkConfig cfg;
  cfg.distance = 6e-3;
  magnetics::InductiveLink link{cfg};
  // A lightly loaded (under-coupled) secondary, as in the paper's fixed
  // transmitter setup — delivered power then tracks M^2 and falls
  // monotonically with distance instead of peaking at critical coupling.
  const double load = 150.0;
  // The paper's "maximum transmitted power": calibrate the drive so the
  // 6 mm air point delivers exactly 15 mW, then never touch it again.
  const double drive = link.drive_for_power(15e-3, load);

  const exec::Sweep sweep = [] {
    exec::Sweep s("power_distance");
    s.axis(exec::Axis::list("distance_mm",
                            {3.0, 4.0, 6.0, 8.0, 10.0, 13.0, 17.0, 21.0, 25.0, 30.0}));
    return s;
  }();
  const exec::SweepRowFn row = [&](const exec::SweepPoint& p) {
    const double d_mm = p["distance_mm"];
    const double d = d_mm * 1e-3;
    magnetics::InductiveLink l{cfg};  // per-point instance: analyze() retunes
    l.set_geometry(d, cfg.lateral_offset);
    const auto air = l.analyze(drive, load);
    l.set_tissue(magnetics::TissueSlab(magnetics::sirloin_properties(), d));
    const auto meat = l.analyze(drive, load);
    return std::vector<std::string>{
        util::Table::cell(d_mm, 3),
        util::Table::cell(air.power_delivered * 1e3, 4),
        util::Table::cell(meat.power_delivered * 1e3, 4),
        util::Table::cell(meat.power_delivered / air.power_delivered, 3),
        util::Table::cell(air.coupling, 3)};
  };
  const std::vector<std::string> columns{"distance (mm)", "P air (mW)",
                                         "P sirloin (mW)", "ratio", "k"};

  exec::SweepOptions serial;
  serial.threads = 1;
  const auto t_serial = sweep.run(columns, row, serial);

  exec::SweepOptions parallel = serial;
  parallel.threads = 4;
  const auto t_parallel = sweep.run(columns, row, parallel);

  if (render_csv(t_serial.table) != render_csv(t_parallel.table)) {
    std::cerr << "FAIL: serial and parallel sweeps disagree\n";
    return EXIT_FAILURE;
  }
  t_serial.table.print(std::cout);
  std::cout << "  (serial " << util::Table::cell(t_serial.wall_seconds * 1e3, 3)
            << " ms, 4-thread " << util::Table::cell(t_parallel.wall_seconds * 1e3, 3)
            << " ms, tables bit-identical)\n";
  run_report.metric("sweep_serial_seconds", t_serial.wall_seconds);
  run_report.metric("sweep_parallel_seconds", t_parallel.wall_seconds);

  link.set_tissue(std::nullopt);
  link.set_geometry(6e-3, 0.0);
  std::cout << "\nAnchor checks:\n  P(6 mm, air)      = "
            << util::format_si(link.analyze(drive, load).power_delivered, "W")
            << "  (paper: 15 mW, by calibration)\n";
  link.set_geometry(17e-3, 0.0);
  const double p_air17 = link.analyze(drive, load).power_delivered;
  link.set_tissue(magnetics::TissueSlab(magnetics::sirloin_properties(), 17e-3));
  const double p_meat17 = link.analyze(drive, load).power_delivered;
  std::cout << "  P(17 mm, air)     = " << util::format_si(p_air17, "W")
            << "\n  P(17 mm, sirloin) = " << util::format_si(p_meat17, "W")
            << "  (paper: 1.17 mW, 'similar to air')\n";

  std::cout << "\nMisalignment at 6 mm (fixed drive):\n";
  util::Table m({"lateral offset (mm)", "P (mW)", "k"});
  link.set_tissue(std::nullopt);
  for (double off_mm : {0.0, 5.0, 10.0, 20.0, 30.0, 40.0}) {
    link.set_geometry(6e-3, off_mm * 1e-3);
    const auto a = link.analyze(drive, load);
    m.add_row({util::Table::cell(off_mm, 3),
               util::Table::cell(a.power_delivered * 1e3, 4),
               util::Table::cell(a.coupling, 3)});
  }
  m.print(std::cout);
  return 0;
}
