// Mutual inductance between circular filaments and between whole coils.
#pragma once

#include <cstdint>

#include "src/magnetics/coil.hpp"

namespace ironic::magnetics {

// Mutual inductance of two coaxial circular filaments with radii a and b
// separated axially by d (Maxwell's formula, exact). [H]
double mutual_coaxial_filaments(double a, double b, double d);

// Mutual inductance of two parallel circular filaments whose centers are
// offset axially by d and laterally by rho, via numerical integration of
// the Neumann double integral. Falls back to the exact coaxial formula
// when rho ~ 0. `quadrature_points` per angular dimension; the default
// of 96 is for direct callers, while mutual_inductance sums its filament
// pairs at 64. The trig of each point count is tabulated once per
// process and shared (n^2 + 2n doubles: 33 KB at 64, 73 KB at 96). [H]
double mutual_filaments(double a, double b, double d, double rho,
                        int quadrature_points = 96);

// Coil-to-coil mutual inductance: face-to-face separation `distance`,
// lateral misalignment `lateral_offset`, summed over all filament pairs. [H]
double mutual_inductance(const Coil& tx, const Coil& rx, double distance,
                         double lateral_offset = 0.0);

// Process-wide count of mutual_inductance calls that took the offset
// (Neumann) path, across all threads. A cost probe for tests and
// benches: it never feeds a result.
std::uint64_t offset_mutual_evaluations();

// Coupling coefficient k = M / sqrt(L1 L2) for the same arrangement.
double coupling_coefficient(const Coil& tx, const Coil& rx, double distance,
                            double lateral_offset = 0.0);

}  // namespace ironic::magnetics
