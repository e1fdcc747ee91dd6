// The sparse hypercube construction (Sections 3 and 4 of the paper).
//
// A SparseHypercubeSpec describes the graph produced by
// Construct(k, (n, n_{k-1}, ..., n_1)) — equivalently Construct_BASE(n, m)
// when k = 2 — via cut points 0 = c_0 < c_1 < ... < c_{k-1} < c_k = n and
// one *level* per recursion step:
//
//   level t (1-based, t = 1 .. k-1):
//     window  (c_{t-1}, c_t]  — the bits whose Condition-A label governs
//     dims    (c_t, c_{t+1}]  — the cross dimensions owned by the labels
//
// Edges (the union of the paper's Rule 1 / Rule 2 applied recursively):
//   dim i <= c_1:                       always present (full Q_{c_1} cores);
//   dim i in (c_t, c_{t+1}]:            present at u iff the level-t label
//                                       of u's window owns dimension i.
//
// The per-dimension membership depends only on bits strictly below i, so
// both endpoints of a candidate edge agree, adjacency is O(1), and no
// materialization is needed (n <= 63).  materialize() produces the CSR
// graph for analysis when n is small.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "shc/bits/vertex.hpp"
#include "shc/graph/graph.hpp"
#include "shc/labeling/labeling.hpp"

namespace shc {

/// One recursion level of the construction.
struct ConstructionLevel {
  int win_lo = 0;  ///< window is (win_lo, win_hi]
  int win_hi = 0;
  int dim_lo = 0;  ///< governed dims are (dim_lo, dim_hi]; dim_lo == win_hi
  int dim_hi = 0;
  CubeLabeling labeling;           ///< Condition-A labeling of Q_{win_hi-win_lo}
  std::vector<Label> dim_owner;    ///< owner label of dim (dim_lo + 1 + idx)
  std::vector<std::vector<Dim>> owned_dims;  ///< S_j: dims owned by label j

  /// Size of the largest S_j — each vertex contributes exactly
  /// |S_{label(u)}| cross edges at this level.
  [[nodiscard]] std::size_t max_owned() const;
  [[nodiscard]] std::size_t min_owned() const;
};

/// Immutable description of one sparse hypercube G.
class SparseHypercubeSpec {
 public:
  /// The paper's Construct_BASE(n, m): k = 2, one level with window
  /// (0, m] and dims (m, n].  `labeling` must be a Condition-A labeling
  /// of Q_m; pass the result of lemma2_labeling(m) for the default
  /// construction, or a pinned labeling (e.g. example1_labeling_m2) to
  /// reproduce the paper's figures exactly.  Pre: 1 <= m < n <= 63.
  [[nodiscard]] static SparseHypercubeSpec construct_base(int n, int m,
                                                          CubeLabeling labeling);

  /// construct_base with the Lemma-2 labeling.
  [[nodiscard]] static SparseHypercubeSpec construct_base(int n, int m);

  /// The paper's Construct(k, (n, cuts_{k-1}, ..., cuts_1)) with the
  /// Lemma-2 labeling on every level.  `cuts` = (n_1, ..., n_{k-1})
  /// strictly increasing, 1 <= n_1, n_{k-1} < n.  k = cuts.size() + 1.
  /// Throws std::invalid_argument ("construct: ...") on bad n or cuts.
  [[nodiscard]] static SparseHypercubeSpec construct(int n, std::vector<int> cuts);

  /// Fully custom: one labeling per level, levels.size() == cuts.size();
  /// labeling t must be a Condition-A labeling of Q_{cuts[t] - cuts[t-1]}
  /// (else std::invalid_argument, as for bad cuts).
  [[nodiscard]] static SparseHypercubeSpec construct(int n, std::vector<int> cuts,
                                                     std::vector<CubeLabeling> labelings);

  [[nodiscard]] int n() const noexcept { return n_; }
  [[nodiscard]] int k() const noexcept { return static_cast<int>(levels_.size()) + 1; }
  [[nodiscard]] std::uint64_t num_vertices() const noexcept { return cube_order(n_); }

  /// First cut c_1 (the paper's m / n_1): dims 1..core_dim() are full.
  [[nodiscard]] int core_dim() const noexcept { return cuts_.front(); }
  [[nodiscard]] const std::vector<int>& cuts() const noexcept { return cuts_; }
  [[nodiscard]] const std::vector<ConstructionLevel>& levels() const noexcept {
    return levels_;
  }

  /// True iff the i-dimensional edge {u, flip(u, i)} is present.
  [[nodiscard]] bool has_edge_dim(Vertex u, Dim i) const noexcept;

  /// Bit mask of the coordinates the dim-i edge predicate reads: empty
  /// for core dimensions (Rule 1, always present), the governing
  /// level's window for cross dimensions.  The symbolic engine's
  /// support discipline rests on this: a subcube whose free dims avoid
  /// the mask has one uniform has_edge_dim verdict for dimension i.
  [[nodiscard]] Vertex dim_support_mask(Dim i) const noexcept;

  /// True iff {u, v} is an edge (cube-adjacent and surviving deletion).
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const noexcept;

  /// Index (0-based) of the level governing dim i, or -1 for core dims.
  [[nodiscard]] int level_of_dim(Dim i) const noexcept;

  /// Level-t label of vertex u (t 0-based).
  [[nodiscard]] Label label_at(Vertex u, int level) const noexcept;

  /// Exact vertex degree: core_dim() + sum over levels of |S_{label}|.
  [[nodiscard]] std::size_t degree(Vertex u) const noexcept;

  /// Exact maximum degree over all vertices (closed form, no scan).
  [[nodiscard]] std::size_t max_degree() const noexcept;

  /// Exact minimum degree (closed form).
  [[nodiscard]] std::size_t min_degree() const noexcept;

  /// Exact edge count (closed form over label-class sizes).
  [[nodiscard]] std::uint64_t num_edges() const;

  /// Materializes the CSR graph.  Throws std::invalid_argument if n > 26.
  [[nodiscard]] Graph materialize() const;

  /// Neighbor list of `u` (present dimensions), ascending by dimension.
  [[nodiscard]] std::vector<Vertex> neighbors(Vertex u) const;

 private:
  SparseHypercubeSpec(int n, std::vector<int> cuts, std::vector<ConstructionLevel> levels);

  int n_;
  std::vector<int> cuts_;                  // c_1 .. c_{k-1}
  std::vector<ConstructionLevel> levels_;  // level t at index t-1
};

/// Implicit adjacency oracle over a SparseHypercubeSpec.  Satisfies the
/// simulator's AdjacencyOracle concept, so templated validator and
/// congestion kernels probe edges through direct inlinable calls and
/// large-n schedules validate without materializing the graph.  It also
/// satisfies the symbolic engine's SymbolicOracle concept: dimension-
/// indexed adjacency plus per-dimension support masks.
class SpecView {
 public:
  /// Keeps a reference; the spec must outlive the view.
  explicit SpecView(const SparseHypercubeSpec& spec) : spec_(&spec) {}

  [[nodiscard]] std::uint64_t num_vertices() const noexcept {
    return spec_->num_vertices();
  }
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const noexcept {
    return spec_->has_edge(u, v);
  }
  [[nodiscard]] int cube_dim() const noexcept { return spec_->n(); }
  [[nodiscard]] bool has_edge_dim(Vertex u, Dim i) const noexcept {
    return spec_->has_edge_dim(u, i);
  }
  [[nodiscard]] Vertex dim_support_mask(Dim i) const noexcept {
    return spec_->dim_support_mask(i);
  }
  [[nodiscard]] const SparseHypercubeSpec& spec() const noexcept { return *spec_; }

 private:
  const SparseHypercubeSpec* spec_;
};

/// Partitions the dimension range (lo, hi] into `classes` subsets with
/// sizes differing by at most one (the paper's Step 2), assigning
/// ascending dimensions to ascending class indices.  Some classes may be
/// empty when hi - lo < classes.  Throws std::invalid_argument unless
/// lo <= hi and classes >= 1.
[[nodiscard]] std::vector<std::vector<Dim>> partition_dims(int lo, int hi,
                                                           Label classes);

}  // namespace shc
