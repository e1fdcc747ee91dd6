#include "shc/mlbg/spec.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <stdexcept>
#include <string>

namespace shc {
namespace {

/// Throws std::invalid_argument unless 2 <= n <= kMaxCubeDim, `cuts` is
/// nonempty, strictly increasing and within [1, n), no level's window
/// is wider than the 24 dims a labeling spans, and there is one
/// labeling per cut.  Cut vectors come from clients: checked, not
/// asserted, and before any labeling is built.
void require_cuts(int n, const std::vector<int>& cuts, std::size_t labelings) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("construct: " + what);
  };
  if (n < 2 || n > kMaxCubeDim) fail("n must be in [2, 63], got " + std::to_string(n));
  if (cuts.empty()) fail("cuts must not be empty");
  if (std::adjacent_find(cuts.begin(), cuts.end(), std::greater_equal<>()) != cuts.end()) {
    fail("cuts must be strictly increasing");
  }
  if (cuts.front() < 1) fail("cuts must be >= 1, got " + std::to_string(cuts.front()));
  if (cuts.back() >= n) {
    fail("last cut " + std::to_string(cuts.back()) + " must be below n = " + std::to_string(n));
  }
  for (std::size_t t = 0; t < cuts.size(); ++t) {
    const int lo = t == 0 ? 0 : cuts[t - 1];
    if (cuts[t] - lo > 24) {
      fail("level " + std::to_string(t) + " window (" + std::to_string(lo) + ", " +
           std::to_string(cuts[t]) + "] is " + std::to_string(cuts[t] - lo) +
           " dims wide, above the 24 a labeling spans");
    }
  }
  if (labelings != cuts.size()) fail("need one labeling per cut, got " + std::to_string(labelings));
}

}  // namespace

std::size_t ConstructionLevel::max_owned() const {
  std::size_t best = 0;
  for (const auto& s : owned_dims) best = std::max(best, s.size());
  return best;
}

std::size_t ConstructionLevel::min_owned() const {
  std::size_t best = owned_dims.empty() ? 0 : owned_dims.front().size();
  for (const auto& s : owned_dims) best = std::min(best, s.size());
  return best;
}

std::vector<std::vector<Dim>> partition_dims(int lo, int hi, Label classes) {
  if (lo > hi || classes < 1) {
    throw std::invalid_argument("partition_dims: need lo <= hi and classes >= 1");
  }
  const int count = hi - lo;
  const int base = count / static_cast<int>(classes);
  const int extra = count % static_cast<int>(classes);
  std::vector<std::vector<Dim>> out(classes);
  Dim next = lo + 1;
  for (Label j = 0; j < classes; ++j) {
    const int size = base + (static_cast<int>(j) < extra ? 1 : 0);
    out[j].reserve(static_cast<std::size_t>(size));
    for (int t = 0; t < size; ++t) out[j].push_back(next++);
  }
  assert(next == hi + 1);  // shc-lint: allow(assert-guard) — the sizes sum to hi - lo
  return out;
}

SparseHypercubeSpec::SparseHypercubeSpec(int n, std::vector<int> cuts,
                                         std::vector<ConstructionLevel> levels)
    : n_(n), cuts_(std::move(cuts)), levels_(std::move(levels)) {}

SparseHypercubeSpec SparseHypercubeSpec::construct_base(int n, int m,
                                                        CubeLabeling labeling) {
  return construct(n, {m}, {std::move(labeling)});
}

SparseHypercubeSpec SparseHypercubeSpec::construct_base(int n, int m) {
  return construct(n, {m});
}

SparseHypercubeSpec SparseHypercubeSpec::construct(int n, std::vector<int> cuts) {
  require_cuts(n, cuts, cuts.size());
  std::vector<CubeLabeling> labelings;
  labelings.reserve(cuts.size());
  int prev = 0;
  for (int c : cuts) {
    labelings.push_back(lemma2_labeling(c - prev));
    prev = c;
  }
  return construct(n, std::move(cuts), std::move(labelings));
}

SparseHypercubeSpec SparseHypercubeSpec::construct(int n, std::vector<int> cuts,
                                                   std::vector<CubeLabeling> labelings) {
  require_cuts(n, cuts, labelings.size());
  std::vector<ConstructionLevel> levels;
  levels.reserve(cuts.size());
  int prev = 0;
  for (std::size_t t = 0; t < cuts.size(); ++t) {
    const int win_lo = prev;
    const int win_hi = cuts[t];
    const int dim_lo = cuts[t];
    const int dim_hi = (t + 1 < cuts.size()) ? cuts[t + 1] : n;
    if (labelings[t].m() != win_hi - win_lo || !labelings[t].satisfies_condition_a()) {
      throw std::invalid_argument("construct: labeling " + std::to_string(t) +
                                  " is not a Condition-A labeling of its " +
                                  std::to_string(win_hi - win_lo) + "-dim window");
    }

    ConstructionLevel level{win_lo, win_hi, dim_lo, dim_hi, std::move(labelings[t]),
                            {}, {}};
    level.owned_dims = partition_dims(dim_lo, dim_hi, level.labeling.num_labels());
    level.dim_owner.assign(static_cast<std::size_t>(dim_hi - dim_lo), 0);
    for (Label j = 0; j < level.labeling.num_labels(); ++j) {
      for (Dim d : level.owned_dims[j]) {
        level.dim_owner[static_cast<std::size_t>(d - dim_lo - 1)] = j;
      }
    }
    levels.push_back(std::move(level));
    prev = cuts[t];
  }
  return SparseHypercubeSpec(n, std::move(cuts), std::move(levels));
}

int SparseHypercubeSpec::level_of_dim(Dim i) const noexcept {
  // Every caller walks the spec's own dims 1..n.
  assert(i >= 1 && i <= n_);  // shc-lint: allow(assert-guard)
  if (i <= cuts_.front()) return -1;
  // levels_[t] governs (cuts_[t], next]; linear scan is fine (k <= 8).
  for (std::size_t t = 0; t < levels_.size(); ++t) {
    if (i <= levels_[t].dim_hi) return static_cast<int>(t);
  }
  return static_cast<int>(levels_.size()) - 1;  // unreachable for valid i
}

Label SparseHypercubeSpec::label_at(Vertex u, int level) const noexcept {
  const ConstructionLevel& lv = levels_[static_cast<std::size_t>(level)];
  return lv.labeling.at(window_value(u, lv.win_lo, lv.win_hi));
}

bool SparseHypercubeSpec::has_edge_dim(Vertex u, Dim i) const noexcept {
  const int t = level_of_dim(i);
  if (t < 0) return true;  // Rule 1 core dimension
  const ConstructionLevel& lv = levels_[static_cast<std::size_t>(t)];
  return lv.dim_owner[static_cast<std::size_t>(i - lv.dim_lo - 1)] == label_at(u, t);
}

Vertex SparseHypercubeSpec::dim_support_mask(Dim i) const noexcept {
  const int t = level_of_dim(i);
  if (t < 0) return 0;  // core edges exist unconditionally
  const ConstructionLevel& lv = levels_[static_cast<std::size_t>(t)];
  return mask_window(lv.win_lo, lv.win_hi);
}

bool SparseHypercubeSpec::has_edge(Vertex u, Vertex v) const noexcept {
  if (u >= num_vertices() || v >= num_vertices() || !cube_adjacent(u, v)) return false;
  return has_edge_dim(u, differing_dim(u, v));
}

std::size_t SparseHypercubeSpec::degree(Vertex u) const noexcept {
  std::size_t d = static_cast<std::size_t>(core_dim());
  for (std::size_t t = 0; t < levels_.size(); ++t) {
    d += levels_[t].owned_dims[label_at(u, static_cast<int>(t))].size();
  }
  return d;
}

std::size_t SparseHypercubeSpec::max_degree() const noexcept {
  // Label classes are all nonempty (Condition A), so some vertex attains
  // the largest S_j at every level simultaneously only if labels can be
  // chosen independently per level — they can, because windows are
  // disjoint bit ranges.
  std::size_t d = static_cast<std::size_t>(core_dim());
  for (const auto& lv : levels_) d += lv.max_owned();
  return d;
}

std::size_t SparseHypercubeSpec::min_degree() const noexcept {
  std::size_t d = static_cast<std::size_t>(core_dim());
  for (const auto& lv : levels_) d += lv.min_owned();
  return d;
}

std::uint64_t SparseHypercubeSpec::num_edges() const {
  // Sum of degrees = 2^n * core + sum over levels/labels of
  // (#vertices with that label) * |S_label|; vertices with label j at
  // level t number class_size(j) * 2^(n - window_size).
  std::uint64_t twice_edges = cube_order(n_) * static_cast<std::uint64_t>(core_dim());
  for (const auto& lv : levels_) {
    const auto sizes = lv.labeling.class_sizes();
    const int wsize = lv.win_hi - lv.win_lo;
    const std::uint64_t copies = cube_order(n_ - wsize);
    for (Label j = 0; j < lv.labeling.num_labels(); ++j) {
      twice_edges += copies * sizes[j] * lv.owned_dims[j].size();
    }
  }
  assert(twice_edges % 2 == 0);  // shc-lint: allow(assert-guard) — a degree sum
  return twice_edges / 2;
}

Graph SparseHypercubeSpec::materialize() const {
  if (n_ > 26) throw std::invalid_argument("materialize: n > 26; use the implicit oracle");
  GraphBuilder b(static_cast<VertexId>(num_vertices()));
  for (Vertex u = 0; u < num_vertices(); ++u) {
    for (Dim i = 1; i <= n_; ++i) {
      const Vertex v = flip(u, i);
      if (u < v && has_edge_dim(u, i)) {
        b.add_edge(static_cast<VertexId>(u), static_cast<VertexId>(v));
      }
    }
  }
  return std::move(b).build();
}

std::vector<Vertex> SparseHypercubeSpec::neighbors(Vertex u) const {
  std::vector<Vertex> nb;
  nb.reserve(degree(u));
  for (Dim i = 1; i <= n_; ++i) {
    if (has_edge_dim(u, i)) nb.push_back(flip(u, i));
  }
  return nb;
}

}  // namespace shc
