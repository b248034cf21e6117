// An independent reference for magnetics::mutual_inductance, sharing
// only the coils' filament lists with the code under test:
//   * coaxial filaments: Maxwell's closed form through the standard
//     library's complete elliptic integrals (std::comp_ellint_1/2);
//   * laterally offset parallel filaments: the single-integral formula
//     of Babic et al. (IEEE Trans. Magn. 46(9), 2010), the vector
//     potential of one loop integrated around the other, evaluated by
//     adaptive Gauss-Kronrod quadrature.
#pragma once

#include <vector>

#include "src/magnetics/coil.hpp"

namespace perfbench::magref {

// Mutual inductance of two coaxial circular filaments [H].
double coaxial_filaments(double a, double b, double d);

// Mutual inductance of two parallel circular filaments, radii a and b,
// axial separation d, lateral offset rho [H].
double offset_filaments(double a, double b, double d, double rho);

// Coil-to-coil mutual inductance, summed over filament pairs in the same
// arrangement the library uses (face separation plus each filament's z).
double coil_mutual(const ironic::magnetics::Coil& tx,
                   const ironic::magnetics::Coil& rx, double distance,
                   double lateral_offset);

// The relative tolerance the library must meet against the reference.
inline constexpr double kTolerance = 1e-9;

struct EnvelopePoint {
  double distance = 0.0;  // [m]
  double offset = 0.0;    // [m]
  double library = 0.0;   // magnetics::mutual_inductance [H]
  double reference = 0.0; // coil_mutual [H]
  double rel_error = 0.0;
};

// Compares the library against the reference on the link's own coils
// at every (distance, offset) pair of the two grids.
std::vector<EnvelopePoint> check_envelope(const std::vector<double>& distances,
                                          const std::vector<double>& offsets);

// The fault envelope: distance 6-20 mm, lateral offset 0-10 mm.
std::vector<double> envelope_distances(bool full);
std::vector<double> envelope_offsets(bool full);

}  // namespace perfbench::magref
