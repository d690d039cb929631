// The paper's "standard partitioning" baseline (section 5).
//
// "The process of standard partitioning starts with a gate as near to a
// primary input as possible. New gates are added until a specified size of
// the module is generated ... The new gate added is that gate whose path
// length to all the gates already clustered gives a minimum sum. If there
// are multiple choices, a gate of this set is selected such that the path
// lengths to all the gates not yet clustered give a maximum sum. A partition
// generated this way contains modules such that their gates are connected
// most closely."
//
// Module sizes are supplied by the caller — in the Table 1 experiment they
// are the sizes the evolution strategy discovered, exactly as in the paper.
// Path lengths use the same rho-saturated separation metric as c3.
#pragma once

#include <span>

#include "core/optimizer.hpp"
#include "netlist/distance_oracle.hpp"
#include "netlist/netlist.hpp"
#include "partition/partition.hpp"

namespace iddq::core {

/// `module_sizes` must sum to the number of logic gates of `nl`. `depth`
/// is the per-gate logic depth (est::TimingGraph::depths()); empty
/// levelizes `nl`.
[[nodiscard]] part::Partition standard_partition(
    const netlist::Netlist& nl, const netlist::DistanceOracle& oracle,
    std::span<const std::size_t> module_sizes,
    std::span<const std::size_t> depth = {});

/// The "standard" method. Module sizes come from the caller: the sizes of
/// an explicit start (the sizes another optimizer discovered), otherwise
/// the logic gates split evenly over request_module_count(req) modules.
/// Deterministic and seed-independent; one evaluation, one iteration.
[[nodiscard]] OptimizerOutcome run_standard(const OptimizerRequest& req,
                                            const OptimizerConfig& config);

}  // namespace iddq::core
