#include "magref.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numbers>

#include "src/magnetics/coupling.hpp"

namespace perfbench::magref {
namespace {

constexpr double kPi = std::numbers::pi;
constexpr double kMu0 = 4.0e-7 * kPi;

// Psi(k) / k with Psi(k) = (1 - k^2/2) K(k) - E(k). Psi vanishes as
// pi k^4 / 32 for small k, where the difference of K and E cancels, so
// the small-k branch uses the series
//   Psi = (pi/2) sum_n k^2n [c_n 2n/(2n-1) - c_{n-1}/2],
//   c_n = (binom(2n, n) / 4^n)^2,
// through n = 5 (truncation below 1e-12 relative at k < 0.05).
double psi_over_k(double k) {
  if (k < 0.05) {
    const double k2 = k * k;
    const double series =
        1.0 / 16.0 +
        k2 * (3.0 / 64.0 + k2 * (75.0 / 2048.0 + k2 * (245.0 / 8192.0)));
    return kPi / 2.0 * k2 * k * series;
  }
  return ((1.0 - k * k / 2.0) * std::comp_ellint_1(k) - std::comp_ellint_2(k)) /
         k;
}

// Adaptive 15-point Gauss-Kronrod quadrature with QUADPACK's nodes and
// error estimate: an interval is accepted once its estimated error is
// below `tol` or at the rounding floor of its own sum, else bisected
// (each half with half the tolerance).
double gauss_kronrod(const std::function<double(double)>& f, double lo,
                     double hi, double tol, int depth) {
  static constexpr double xgk[8] = {
      0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
      0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
      0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
      0.207784955007898467600689403773245, 0.0};
  static constexpr double wgk[8] = {
      0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
      0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
      0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
      0.204432940075298892414161999234649, 0.209482141084727828012999174891714};
  static constexpr double wg[4] = {
      0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
      0.381830050505118944950369775488975, 0.417959183673469387755102040816327};
  const double centre = 0.5 * (lo + hi);
  const double half = 0.5 * (hi - lo);
  double fv[15];
  fv[7] = f(centre);
  for (int i = 0; i < 7; ++i) {
    fv[i] = f(centre - half * xgk[i]);
    fv[14 - i] = f(centre + half * xgk[i]);
  }
  const auto weight = [&](int j) { return wgk[j < 8 ? j : 14 - j]; };
  double kronrod = 0.0;
  double resabs = 0.0;
  for (int j = 0; j < 15; ++j) {
    kronrod += weight(j) * fv[j];
    resabs += weight(j) * std::abs(fv[j]);
  }
  double gauss = wg[3] * fv[7];
  for (int i = 1; i < 7; i += 2) gauss += wg[i / 2] * (fv[i] + fv[14 - i]);
  const double mean = kronrod / 2.0;
  double resasc = 0.0;
  for (int j = 0; j < 15; ++j) resasc += weight(j) * std::abs(fv[j] - mean);
  kronrod *= half;
  gauss *= half;
  resabs *= std::abs(half);
  resasc *= std::abs(half);
  double err = std::abs(kronrod - gauss);
  if (resasc != 0.0 && err != 0.0) {
    err = resasc * std::min(1.0, std::pow(200.0 * err / resasc, 1.5));
  }
  const double floor = 50.0 * std::numeric_limits<double>::epsilon() * resabs;
  if (err <= std::max(tol, floor) || depth >= 20) return kronrod;
  return gauss_kronrod(f, lo, centre, tol / 2.0, depth + 1) +
         gauss_kronrod(f, centre, hi, tol / 2.0, depth + 1);
}

}  // namespace

double coaxial_filaments(double a, double b, double d) {
  const double k = std::sqrt(4.0 * a * b / ((a + b) * (a + b) + d * d));
  return 2.0 * kMu0 * std::sqrt(a * b) * psi_over_k(k);
}

double offset_filaments(double a, double b, double d, double rho) {
  if (rho == 0.0) return coaxial_filaments(a, b, d);
  // Loop b, centred rho off loop a's axis, at angle phi sits at radius
  // r = b V(phi) from that axis; the azimuthal vector potential of loop
  // a there, dotted into loop b's tangent, gives
  //   M = (2 mu0 sqrt(ab) / pi) int_0^pi (1 + beta cos phi)
  //         Psi(k) / (k V^(3/2)) dphi,   beta = rho / b,
  //   k^2 = 4 a r / ((a + r)^2 + d^2).
  const double beta = rho / b;
  const auto integrand = [&](double phi) {
    const double c = std::cos(phi);
    const double v = std::sqrt(1.0 + beta * beta + 2.0 * beta * c);
    const double r = b * v;
    const double k = std::sqrt(4.0 * a * r / ((a + r) * (a + r) + d * d));
    return (1.0 + beta * c) * psi_over_k(k) / (v * std::sqrt(v));
  };
  // Scale the absolute tolerance by the coaxial value at the same d so
  // the acceptance test is relative, near 1e-14.
  const double scale =
      std::abs(coaxial_filaments(a, b, d)) / (2.0 * kMu0 * std::sqrt(a * b));
  const double integral =
      gauss_kronrod(integrand, 0.0, kPi, 1e-14 * std::max(scale, 1e-300), 0);
  return 2.0 * kMu0 * std::sqrt(a * b) / kPi * integral;
}

double coil_mutual(const ironic::magnetics::Coil& tx,
                   const ironic::magnetics::Coil& rx, double distance,
                   double lateral_offset) {
  double total = 0.0;
  for (const auto& f1 : tx.filaments()) {
    for (const auto& f2 : rx.filaments()) {
      total += offset_filaments(f1.radius, f2.radius,
                                distance + f1.z + f2.z, lateral_offset);
    }
  }
  return total;
}

std::vector<EnvelopePoint> check_envelope(const std::vector<double>& distances,
                                          const std::vector<double>& offsets) {
  const ironic::magnetics::Coil tx(ironic::magnetics::patch_coil_spec());
  const ironic::magnetics::Coil rx(ironic::magnetics::implant_coil_spec());
  std::vector<EnvelopePoint> points;
  for (const double d : distances) {
    for (const double rho : offsets) {
      EnvelopePoint p;
      p.distance = d;
      p.offset = rho;
      p.library = ironic::magnetics::mutual_inductance(tx, rx, d, rho);
      p.reference = coil_mutual(tx, rx, d, rho);
      p.rel_error = std::abs(p.library - p.reference) / std::abs(p.reference);
      points.push_back(p);
    }
  }
  return points;
}

std::vector<double> envelope_distances(bool full) {
  if (!full) return {6e-3, 13e-3, 20e-3};
  return {6e-3, 8e-3, 10e-3, 12e-3, 14e-3, 17e-3, 20e-3};
}

std::vector<double> envelope_offsets(bool full) {
  if (!full) return {0.0, 5e-3, 10e-3};
  return {0.0, 1e-3, 2.5e-3, 4e-3, 5e-3, 6e-3, 7.5e-3, 10e-3};
}

}  // namespace perfbench::magref
