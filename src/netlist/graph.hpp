// Undirected view of the circuit graph and breadth-first search.
//
// The interconnection cost of section 3.3 is defined on "the undirected graph
// of the logic circuit": two gates are adjacent when one drives the other.
// Primary-input pads participate as traversable vertices (a path may run
// through a shared input).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace iddq::netlist {

/// Adjacency lists of the undirected circuit graph (deduplicated, sorted).
class UndirectedGraph {
 public:
  explicit UndirectedGraph(const Netlist& nl);

  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return adjacency_.size();
  }

  [[nodiscard]] std::span<const GateId> neighbors(GateId id) const {
    return adjacency_[id];
  }

  /// Total number of undirected edges.
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }

 private:
  std::vector<std::vector<GateId>> adjacency_;
  std::size_t edges_ = 0;
};

/// Distance of a vertex outside the searched radius (or unreachable).
inline constexpr std::uint32_t kUnreached = static_cast<std::uint32_t>(-1);

/// Caller-owned scratch of bfs_within, reused across sources so that a
/// search costs O(ball) instead of O(V): `dist` is sized once, and only
/// the entries the previous search set are reset, through its visit list.
struct BfsScratch {
  std::vector<std::uint32_t> dist;  // hop distance, or kUnreached
  std::vector<GateId> visited;      // reached vertices in BFS order
};

/// Visits every vertex within `radius` hops of `source`. On return
/// `scratch.visited` lists them in BFS order (source first) and
/// `scratch.dist` holds their hop distances; every other entry of
/// `scratch.dist` is kUnreached.
void bfs_within(const UndirectedGraph& graph, GateId source,
                std::uint32_t radius, BfsScratch& scratch);

}  // namespace iddq::netlist
