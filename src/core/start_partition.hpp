// Start-partition construction by chain clustering (paper section 4.2).
//
// "Starting from a gate close to a primary input, chains are formed towards
// a primary output. The process stops if this path reaches a primary output,
// or if there is no free gate anymore, or if the maximum module size is
// reached. Modules are formed as long as there are free gates. Using
// different chains the required number of start partitions is constructed."
//
// A module accumulates successive chains (each following free fanouts from a
// low-depth free gate) until it reaches the target size; random tie-breaks
// make distinct seeds produce distinct start partitions for the evolution
// strategy's initial population.
#pragma once

#include <span>

#include "netlist/netlist.hpp"
#include "partition/partition.hpp"
#include "support/rng.hpp"

namespace iddq::core {

/// Builds a start partition with exactly `module_count` modules (>= 1 and
/// <= logic gate count). Every module is non-empty. `depth` is the per-gate
/// logic depth (est::TimingGraph::depths() of the evaluation context, so
/// repeated starts share one levelization); empty levelizes `nl`.
[[nodiscard]] part::Partition make_start_partition(
    const netlist::Netlist& nl, std::size_t module_count, Rng& rng,
    std::span<const std::size_t> depth = {});

}  // namespace iddq::core
