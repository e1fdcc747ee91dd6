// Minimality probes: how lean is the construction?  Deleting any single
// edge of G_{4,2} breaks the Broadcast_2 scheme for some source — every
// surviving edge is load-bearing for minimum-time broadcast (a
// scheme-level counterpart of the paper's "minimal" in k-mlbg).
#include <gtest/gtest.h>

#include "shc/mlbg/broadcast.hpp"
#include "shc/mlbg/spec.hpp"
#include "shc/sim/validator.hpp"

namespace shc {
namespace {

/// A spec view with one edge deleted.
class DeletedEdgeView {
 public:
  DeletedEdgeView(const SparseHypercubeSpec& spec, Vertex a, Vertex b)
      : spec_(spec), a_(a < b ? a : b), b_(a < b ? b : a) {}

  [[nodiscard]] std::uint64_t num_vertices() const {
    return spec_.num_vertices();
  }
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const {
    if ((u == a_ && v == b_) || (u == b_ && v == a_)) return false;
    return spec_.has_edge(u, v);
  }

 private:
  const SparseHypercubeSpec& spec_;
  Vertex a_, b_;
};

/// True iff the Broadcast_k schedules (computed on the intact spec)
/// remain valid for every source when edge {a, b} is removed.
bool schedules_survive_deletion(const SparseHypercubeSpec& spec, Vertex a, Vertex b) {
  const DeletedEdgeView view(spec, a, b);
  for (Vertex s = 0; s < spec.num_vertices(); ++s) {
    const auto rep =
        validate_minimum_time_k_line(view, make_broadcast_schedule(spec, s), spec.k());
    if (!rep.ok) return false;
  }
  return true;
}

TEST(Minimality, EveryG42EdgeIsSchemeCritical) {
  const auto g42 = SparseHypercubeSpec::construct_base(4, 2, example1_labeling_m2());
  std::size_t edges_probed = 0;
  for (Vertex u = 0; u < g42.num_vertices(); ++u) {
    for (Dim i = 1; i <= g42.n(); ++i) {
      const Vertex v = flip(u, i);
      if (u < v && g42.has_edge_dim(u, i)) {
        ++edges_probed;
        EXPECT_FALSE(schedules_survive_deletion(g42, u, v))
            << "edge {" << u << "," << v << "} (dim " << i
            << ") is not used by any source's schedule";
      }
    }
  }
  EXPECT_EQ(edges_probed, g42.num_edges());
}

TEST(Minimality, LargerBaseConstructionAlsoLean) {
  // G_{6,3}: probe a sample of edges across rule types.
  const auto spec = SparseHypercubeSpec::construct_base(6, 3);
  const std::vector<std::pair<Vertex, Dim>> samples = {
      {0b000000, 1},  // Rule-1 core edge
      {0b000101, 2},  // Rule-1 core edge
      {0b000000, 4},  // Rule-2 cross edge (if present at this vertex)
      {0b000111, 5}, {0b010011, 6}};
  for (const auto& [u, i] : samples) {
    if (!spec.has_edge_dim(u, i)) continue;
    EXPECT_FALSE(schedules_survive_deletion(spec, u, flip(u, i)))
        << "u=" << u << " dim=" << i;
  }
}

TEST(Minimality, DeletingANonEdgeChangesNothing) {
  const auto g42 = SparseHypercubeSpec::construct_base(4, 2, example1_labeling_m2());
  // {0000, 1000} is already absent; "deleting" it must leave all
  // schedules valid.
  EXPECT_TRUE(schedules_survive_deletion(g42, 0b0000, 0b1000));
}

TEST(Minimality, ValidatorPinpointsTheMissingEdge) {
  const auto g42 = SparseHypercubeSpec::construct_base(4, 2, example1_labeling_m2());
  // Remove a core edge that the source itself uses late in the flood.
  const DeletedEdgeView view(g42, 0b0000, 0b0001);
  const auto rep =
      validate_minimum_time_k_line(view, make_broadcast_schedule(g42, 0), 2);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("no edge"), std::string::npos);
}

}  // namespace
}  // namespace shc
