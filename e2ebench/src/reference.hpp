// In-memory reference answers the benchmark checks the engine against.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace e2e {

/// Double-precision replica of apps::PageRankDelta under BSP: superstep 0
/// activates every vertex, later supersteps the vertices that received
/// residual, for at most `max_supersteps` supersteps.
std::vector<double> pagerank_delta_reference(const mlvc::graph::CsrGraph& g,
                                             double damping, double epsilon,
                                             unsigned max_supersteps);

/// Hop distance from `source` (UINT32_MAX = unreached).
std::vector<std::uint32_t> bfs_reference(const mlvc::graph::CsrGraph& g,
                                         mlvc::VertexId source);

/// Dijkstra distances from `source` over the CSR edge values (+inf =
/// unreached). Exact for the benchmark's small-integer weights.
std::vector<float> sssp_reference(const mlvc::graph::CsrGraph& g,
                                  mlvc::VertexId source);

/// Weakly connected components: the smallest vertex id of each component.
std::vector<std::uint32_t> wcc_reference(const mlvc::graph::CsrGraph& g);

/// FNV-1a over raw bytes, continuing from `h`.
inline constexpr std::uint64_t kFnvSeed = 1469598103934665603ull;
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n);

}  // namespace e2e
