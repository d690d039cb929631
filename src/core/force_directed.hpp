// Force-directed placement seeding (the fourth section-4 heuristic).
//
// Section 4 of the paper lists "force directed placement" among the
// heuristics applicable to PART-IDDQ. This implementation uses the classic
// one-dimensional relaxation: every gate gets a position on [0, 1], primary
// inputs are pinned at 0 and primary-output gates at 1, and each relaxation
// pass moves every free gate to the barycentre of its wired neighbours
// (Gauss-Seidel, in ascending GateId order). After `passes` sweeps, gates
// that are tightly connected have converged to nearby positions; sorting by
// position and slicing into K equal contiguous ranges yields modules of
// strongly connected gates — a structure-aware start partition.
//
// The construction is fully deterministic and seed-independent (ties sort
// by GateId); it is a *seeding* heuristic, typically composed as
// "force+greedy" or used to warm-start the other optimizers.
#pragma once

#include <cstddef>

#include "core/optimizer.hpp"
#include "netlist/netlist.hpp"
#include "partition/partition.hpp"

namespace iddq::core {

/// Builds the force-directed partition with exactly `module_count` modules
/// (>= 1 and <= logic gate count; throws iddq::Error otherwise). `passes`
/// is the number of relaxation sweeps.
[[nodiscard]] part::Partition force_directed_partition(
    const netlist::Netlist& nl, std::size_t module_count,
    std::size_t passes = 60);

/// The "force" method: the force-directed partition at
/// request_module_count(req) modules with `config.force_passes` passes,
/// evaluated once. Seed-independent; an explicit start contributes only
/// its module count, like "random". iterations are the passes.
[[nodiscard]] OptimizerOutcome run_force(const OptimizerRequest& req,
                                         const OptimizerConfig& config);

}  // namespace iddq::core
