#include "inputs.hpp"

#include <algorithm>
#include <vector>

namespace perfbench {
namespace {

using Adjacency = std::vector<std::vector<NodeId>>;

bool linked(const Adjacency& adj, NodeId u, NodeId v) {
  return std::find(adj[u].begin(), adj[u].end(), v) != adj[u].end();
}

void link(Adjacency& adj, NodeId u, NodeId v) {
  adj[u].push_back(v);
  adj[v].push_back(u);
}

/// Keeps the component of the highest-degree node (ties: lowest id), which
/// becomes node 0; the other kept nodes keep their relative order.
Overlay to_overlay(const Adjacency& adj) {
  NodeId hub = 0;
  for (NodeId v = 0; v < adj.size(); ++v)
    if (adj[v].size() > adj[hub].size()) hub = v;

  std::vector<char> seen(adj.size(), 0);
  std::vector<NodeId> stack{hub};
  seen[hub] = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NodeId u : adj[v])
      if (!seen[u]) {
        seen[u] = 1;
        stack.push_back(u);
      }
  }

  constexpr NodeId kDropped = ~NodeId{0};
  std::vector<NodeId> relabel(adj.size(), kDropped);
  NodeId next = 1;
  relabel[hub] = 0;
  for (NodeId v = 0; v < adj.size(); ++v)
    if (seen[v] && v != hub) relabel[v] = next++;

  overcount::GraphBuilder builder(next);
  for (NodeId v = 0; v < adj.size(); ++v) {
    if (relabel[v] == kDropped) continue;
    for (NodeId u : adj[v])
      if (v < u) builder.add_edge(relabel[v], relabel[u]);
  }
  Overlay out;
  out.graph = builder.build();
  out.nodes = out.graph.num_nodes();
  out.degree_sum = out.graph.total_degree();
  return out;
}

}  // namespace

Overlay balanced_overlay(std::size_t n, InputRng& rng) {
  constexpr std::size_t kMaxDegree = 10;
  Adjacency adj(n);
  for (NodeId v = 0; v < n; ++v) {
    // `want` draws over the whole population; a draw on v itself, a
    // neighbour or a saturated node is discarded without retry, which keeps
    // the average degree near the paper's 7-8.
    const std::size_t want = 1 + rng.below(kMaxDegree);
    for (std::size_t draw = 0; draw < want && adj[v].size() < kMaxDegree;
         ++draw) {
      const auto u = static_cast<NodeId>(rng.below(n));
      if (u == v || adj[u].size() >= kMaxDegree || linked(adj, v, u))
        continue;
      link(adj, v, u);
    }
  }
  return to_overlay(adj);
}

Overlay scale_free_overlay(std::size_t n, std::size_t m, InputRng& rng) {
  Adjacency adj(n);
  std::vector<NodeId> endpoints;  // node v appears degree(v) times
  for (NodeId u = 0; u <= m; ++u)
    for (NodeId v = u + 1; v <= m; ++v) {
      link(adj, u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  std::vector<NodeId> targets;
  for (auto v = static_cast<NodeId>(m + 1); v < n; ++v) {
    targets.clear();
    while (targets.size() < m) {
      const NodeId u = endpoints[rng.below(endpoints.size())];
      if (std::find(targets.begin(), targets.end(), u) == targets.end())
        targets.push_back(u);
    }
    for (NodeId u : targets) {
      link(adj, v, u);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  return to_overlay(adj);
}

}  // namespace perfbench
