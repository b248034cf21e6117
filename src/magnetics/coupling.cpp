#include "src/magnetics/coupling.hpp"

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "src/magnetics/elliptic.hpp"
#include "src/util/constants.hpp"

namespace ironic::magnetics {

using constants::kMu0;
using constants::kTwoPi;

double mutual_coaxial_filaments(double a, double b, double d) {
  if (a <= 0.0 || b <= 0.0) {
    throw std::invalid_argument("mutual_coaxial_filaments: radii must be > 0");
  }
  const double denom = (a + b) * (a + b) + d * d;
  const double kappa = std::sqrt(4.0 * a * b / denom);
  if (kappa >= 1.0) {
    throw std::invalid_argument("mutual_coaxial_filaments: degenerate geometry");
  }
  const double kk = elliptic_k(kappa);
  const double ee = elliptic_e(kappa);
  return kMu0 * std::sqrt(a * b) *
         ((2.0 / kappa - kappa) * kk - (2.0 / kappa) * ee);
}

namespace {

// cos/sin of every node angle i*h and cos of every angle difference
// i*h - j*h for an n-point Neumann rule: the trig the double sum used to
// evaluate inside its n^2 loop, from the same std::cos/std::sin calls on
// the same arguments, so reading a table entry is bit-identical to the
// call it replaces. Immutable once built (33 KB at n = 64).
struct AngleTable {
  explicit AngleTable(int n) : n(n), h(kTwoPi / n), cos_node(n), sin_node(n),
                               cos_diff(static_cast<std::size_t>(n) * n) {
    for (int i = 0; i < n; ++i) {
      cos_node[i] = std::cos(i * h);
      sin_node[i] = std::sin(i * h);
      for (int j = 0; j < n; ++j) {
        cos_diff[static_cast<std::size_t>(i) * n + j] = std::cos(i * h - j * h);
      }
    }
  }
  int n;
  double h;
  std::vector<double> cos_node;
  std::vector<double> sin_node;
  std::vector<double> cos_diff;  // row-major [i][j]
};

// One table per quadrature count, built on first use and shared by every
// filament pair and thread for the life of the process.
const AngleTable& angle_table(int n) {
  static std::mutex mutex;
  static std::map<int, std::unique_ptr<const AngleTable>> tables;
  const std::lock_guard<std::mutex> lock(mutex);
  auto& slot = tables[n];
  if (!slot) slot = std::make_unique<const AngleTable>(n);
  return *slot;
}

// Neumann formula over the two loop angles; both integrands are
// periodic, so the trapezoid rule converges spectrally. The summation
// order is the direct double loop's.
double neumann_sum(const AngleTable& table, double a, double b, double d,
                   double rho) {
  const int n = table.n;
  std::vector<double> x2(n);
  std::vector<double> y2(n);
  for (int j = 0; j < n; ++j) {
    x2[j] = rho + b * table.cos_node[j];
    y2[j] = b * table.sin_node[j];
  }
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x1 = a * table.cos_node[i];
    const double y1 = a * table.sin_node[i];
    const double* cos_diff = &table.cos_diff[static_cast<std::size_t>(i) * n];
    for (int j = 0; j < n; ++j) {
      const double dx = x2[j] - x1;
      const double dy = y2[j] - y1;
      const double r = std::sqrt(dx * dx + dy * dy + d * d);
      sum += cos_diff[j] / r;
    }
  }
  return kMu0 / (4.0 * constants::kPi) * a * b * sum * table.h * table.h;
}

// Points per angular dimension of the coil-to-coil Neumann sum.
constexpr int kCoilQuadraturePoints = 64;

std::atomic<std::uint64_t> g_offset_evaluations{0};

}  // namespace

double mutual_filaments(double a, double b, double d, double rho,
                        int quadrature_points) {
  if (std::abs(rho) < 1e-12) return mutual_coaxial_filaments(a, b, d);
  if (quadrature_points < 8) {
    throw std::invalid_argument("mutual_filaments: too few quadrature points");
  }
  return neumann_sum(angle_table(quadrature_points), a, b, d, rho);
}

double mutual_inductance(const Coil& tx, const Coil& rx, double distance,
                         double lateral_offset) {
  if (distance <= 0.0) {
    throw std::invalid_argument("mutual_inductance: distance must be > 0");
  }
  // Coaxial path is exact and fast; the offset path integrates Neumann.
  const bool coaxial = std::abs(lateral_offset) < 1e-12;
  const AngleTable* table = nullptr;
  if (!coaxial) {
    g_offset_evaluations.fetch_add(1, std::memory_order_relaxed);
    table = &angle_table(kCoilQuadraturePoints);
  }
  double total = 0.0;
  for (const auto& f1 : tx.filaments()) {
    for (const auto& f2 : rx.filaments()) {
      const double d = distance + f1.z + f2.z;
      total += coaxial ? mutual_coaxial_filaments(f1.radius, f2.radius, d)
                       : neumann_sum(*table, f1.radius, f2.radius, d,
                                     lateral_offset);
    }
  }
  return total;
}

std::uint64_t offset_mutual_evaluations() {
  return g_offset_evaluations.load(std::memory_order_relaxed);
}

double coupling_coefficient(const Coil& tx, const Coil& rx, double distance,
                            double lateral_offset) {
  const double m = mutual_inductance(tx, rx, distance, lateral_offset);
  return m / std::sqrt(tx.inductance() * rx.inductance());
}

}  // namespace ironic::magnetics
