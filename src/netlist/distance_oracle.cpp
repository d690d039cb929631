#include "netlist/distance_oracle.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace iddq::netlist {

DistanceOracle::DistanceOracle(const Netlist& nl, std::uint32_t rho)
    : rho_(rho) {
  require(rho >= 1, "DistanceOracle: rho must be >= 1");
  const UndirectedGraph graph(nl);
  near_.resize(nl.gate_count());
  if (rho_ == 1) return;  // every pair saturates; nothing to store
  BfsScratch scratch;
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    bfs_within(graph, g, rho_ - 1, scratch);
    // The visit list is the ball itself, source first; sort it by id for
    // binary search.
    auto& list = near_[g];
    list.reserve(scratch.visited.size() - 1);
    for (std::size_t i = 1; i < scratch.visited.size(); ++i) {
      const GateId v = scratch.visited[i];
      list.push_back(Entry{v, static_cast<std::uint8_t>(scratch.dist[v])});
    }
    std::sort(list.begin(), list.end(),
              [](const Entry& a, const Entry& b) { return a.gate < b.gate; });
  }
}

std::uint32_t DistanceOracle::separation(GateId a, GateId b) const {
  IDDQ_ASSERT(a < near_.size() && b < near_.size());
  IDDQ_ASSERT(a != b);
  const auto& list = near_[a];
  const auto it = std::lower_bound(
      list.begin(), list.end(), b,
      [](const Entry& e, GateId id) { return e.gate < id; });
  if (it != list.end() && it->gate == b) return it->distance;
  return rho_;
}

std::size_t DistanceOracle::entry_count() const noexcept {
  std::size_t n = 0;
  for (const auto& list : near_) n += list.size();
  return n;
}

}  // namespace iddq::netlist
