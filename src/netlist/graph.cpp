#include "netlist/graph.hpp"

#include <algorithm>

namespace iddq::netlist {

UndirectedGraph::UndirectedGraph(const Netlist& nl) {
  adjacency_.resize(nl.gate_count());
  for (GateId id = 0; id < nl.gate_count(); ++id) {
    const Gate& g = nl.gate(id);
    auto& adj = adjacency_[id];
    adj.reserve(g.fanins.size() + g.fanouts.size());
    adj.insert(adj.end(), g.fanins.begin(), g.fanins.end());
    adj.insert(adj.end(), g.fanouts.begin(), g.fanouts.end());
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  }
  for (const auto& adj : adjacency_) edges_ += adj.size();
  edges_ /= 2;
}

void bfs_within(const UndirectedGraph& graph, GateId source,
                std::uint32_t radius, BfsScratch& scratch) {
  auto& dist = scratch.dist;
  auto& visited = scratch.visited;
  if (dist.size() != graph.vertex_count()) {
    dist.assign(graph.vertex_count(), kUnreached);
  } else {
    for (const GateId v : visited) dist[v] = kUnreached;
  }
  visited.clear();
  // The visit list doubles as the FIFO queue.
  dist[source] = 0;
  visited.push_back(source);
  for (std::size_t head = 0; head < visited.size(); ++head) {
    const GateId u = visited[head];
    if (dist[u] >= radius) continue;
    for (const GateId v : graph.neighbors(u)) {
      if (dist[v] == kUnreached) {
        dist[v] = dist[u] + 1;
        visited.push_back(v);
      }
    }
  }
}

}  // namespace iddq::netlist
