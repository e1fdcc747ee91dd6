// Adjacency oracles for the simulator: one plain (non-virtual) type per
// topology.  GraphView wraps a materialized Graph and CubeOracle is the
// implicit full cube; sparse hypercubes use SpecView (mlbg/spec.hpp).
// The validator and congestion kernels are templates over the
// AdjacencyOracle concept (validator.hpp), so every edge probe is a
// direct, inlinable call.
#pragma once

#include <cstdint>

#include "shc/bits/vertex.hpp"
#include "shc/graph/graph.hpp"

namespace shc {

/// Adjacency oracle over a materialized Graph.
class GraphView {
 public:
  /// Keeps a reference; the graph must outlive the view.
  explicit GraphView(const Graph& g) : g_(g) {}

  [[nodiscard]] std::uint64_t num_vertices() const noexcept { return g_.num_vertices(); }

  /// True iff {u, v} is an edge (symmetric and irreflexive).
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const {
    return g_.has_edge(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }

 private:
  const Graph& g_;
};

/// Implicit oracle of the full binary n-cube Q_n (n <= 63), the full
/// cube's answer to SpecView: every dimension's edge predicate is
/// constant-true with an empty support mask, so it satisfies both the
/// AdjacencyOracle and the symbolic engines' SymbolicOracle concepts.
class CubeOracle {
 public:
  explicit CubeOracle(int n) : n_(n) {}

  [[nodiscard]] std::uint64_t num_vertices() const noexcept { return cube_order(n_); }
  [[nodiscard]] int cube_dim() const noexcept { return n_; }
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const noexcept {
    return cube_adjacent(u, v);
  }
  [[nodiscard]] bool has_edge_dim(Vertex, Dim) const noexcept { return true; }
  [[nodiscard]] Vertex dim_support_mask(Dim) const noexcept { return 0; }

 private:
  int n_;
};

}  // namespace shc
