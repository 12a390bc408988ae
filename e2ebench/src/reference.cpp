#include "reference.hpp"

#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>

namespace e2e {

using mlvc::EdgeIndex;
using mlvc::VertexId;

std::vector<double> pagerank_delta_reference(const mlvc::graph::CsrGraph& g,
                                             double damping, double epsilon,
                                             unsigned max_supersteps) {
  const VertexId n = g.num_vertices();
  std::vector<double> rank(n, 0.0), inbox(n, 0.0), next(n, 0.0);
  std::vector<char> seeded(n, 0), active(n, 1), next_active(n, 0);
  for (unsigned s = 0; s < max_supersteps; ++s) {
    bool any = false;
    for (VertexId v = 0; v < n && !any; ++v) any = active[v] != 0;
    if (!any) break;
    std::fill(next.begin(), next.end(), 0.0);
    std::fill(next_active.begin(), next_active.end(), 0);
    for (VertexId v = 0; v < n; ++v) {
      if (active[v] == 0) continue;
      double delta = inbox[v];
      if (seeded[v] == 0) {
        seeded[v] = 1;
        delta += 1.0 - damping;
      }
      rank[v] += delta;
      const EdgeIndex deg = g.out_degree(v);
      if (delta > epsilon && deg > 0) {
        const double share = damping * delta / static_cast<double>(deg);
        for (const VertexId u : g.neighbors(v)) {
          next[u] += share;
          next_active[u] = 1;
        }
      }
    }
    inbox.swap(next);
    active.swap(next_active);
  }
  return rank;
}

std::vector<std::uint32_t> bfs_reference(const mlvc::graph::CsrGraph& g,
                                         VertexId source) {
  constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> level(g.num_vertices(), kUnreached);
  std::vector<VertexId> frontier{source}, next;
  level[source] = 0;
  for (std::uint32_t d = 1; !frontier.empty(); ++d) {
    next.clear();
    for (const VertexId v : frontier) {
      for (const VertexId u : g.neighbors(v)) {
        if (level[u] == kUnreached) {
          level[u] = d;
          next.push_back(u);
        }
      }
    }
    frontier.swap(next);
  }
  return level;
}

std::vector<float> sssp_reference(const mlvc::graph::CsrGraph& g,
                                  VertexId source) {
  std::vector<float> dist(g.num_vertices(),
                          std::numeric_limits<float>::infinity());
  using Item = std::pair<float, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[source] = 0.0f;
  heap.emplace(0.0f, source);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    const auto nbrs = g.neighbors(v);
    const auto w = g.weights(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const float cand = d + w[k];
      if (cand < dist[nbrs[k]]) {
        dist[nbrs[k]] = cand;
        heap.emplace(cand, nbrs[k]);
      }
    }
  }
  return dist;
}

std::vector<std::uint32_t> wcc_reference(const mlvc::graph::CsrGraph& g) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> parent(n);
  std::iota(parent.begin(), parent.end(), VertexId{0});
  const auto find = [&](VertexId v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId u : g.neighbors(v)) {
      const VertexId a = find(v), b = find(u);
      // Union by smaller id: every root is its component's minimum.
      if (a < b) parent[b] = a;
      if (b < a) parent[a] = b;
    }
  }
  std::vector<std::uint32_t> label(n);
  for (VertexId v = 0; v < n; ++v) label[v] = find(v);
  return label;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace e2e
