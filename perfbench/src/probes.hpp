// Per-layer probes for the traced run: each one times a single layer
// of the session stack (link power query, coil mutual inductance, plant
// segment, transient step, factor/solve counts, bio-impedance sample,
// charge-up) through the library's public entry points.
#pragma once

#include <memory>

#include "src/spice/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

// Appends the layer metrics to `out`; `charged` is the shared charge-up
// checkpoint the plant probes fork from.
void layer_probes(const std::shared_ptr<const ironic::spice::TransientCheckpoint>& charged,
                  Outcome& out);

}  // namespace perfbench
