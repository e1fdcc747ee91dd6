// Experiment E14 — Section-5 model variants (ablations).
//
// (a) Vertex-disjoint calls: the paper suggests extending the model to
//     vertex-disjoint settings.  Broadcast_k already satisfies it —
//     concurrent calls live in disjoint subcubes — so the construction's
//     guarantees carry over to the stricter model for free.  The star
//     (Section 2's minimum-edge 2-mlbg) does not survive: its doubling
//     relies on switching many calls through the hub.
// (b) Property-2-aware design: G_j subset G_{j+1} means a k budget can be
//     spent on any j <= k; the table shows where each j wins and what
//     design_best_sparse_hypercube picks.
#include <benchmark/benchmark.h>

#include <iostream>

#include "shc/shc.hpp"

namespace {

using namespace shc;

void print_vertex_disjoint() {
  std::cout << "\n=== E14a: vertex-disjoint k-line model ===\n";
  TextTable t({"network", "k", "edge-disjoint ok", "vertex-disjoint ok"});
  for (auto [n, k] : {std::pair{8, 2}, std::pair{9, 3}, std::pair{10, 4}}) {
    const auto spec = design_sparse_hypercube(n, k);
    const SpecView view(spec);
    const auto schedule = make_broadcast_schedule(spec, 1);
    ValidationOptions strict;
    strict.k = k;
    strict.require_vertex_disjoint = true;
    const auto weak = validate_minimum_time_k_line(view, schedule, k);
    const auto strong = validate_broadcast(view, schedule, strict);
    t.add_row({"G(" + std::to_string(n) + "," + std::to_string(k) + ")",
               std::to_string(k), weak.ok ? "yes" : "no", strong.ok ? "yes" : "no"});
  }
  {
    const Graph g = make_star(256);
    const GraphView view(g);
    const auto schedule = star_line_broadcast(256, 0);
    ValidationOptions strict;
    strict.k = 2;
    strict.require_vertex_disjoint = true;
    t.add_row({"star K_{1,255}", "2",
               validate_minimum_time_k_line(view, schedule, 2).ok ? "yes" : "no",
               validate_broadcast(view, schedule, strict).ok ? "yes" : "no"});
  }
  t.print(std::cout);
  std::cout << "Expected shape: sparse hypercubes pass the stricter model; the star\n"
               "fails it (hub switching) — degree economy survives, edge economy\n"
               "does not.\n";
}

void print_design_best() {
  std::cout << "\n=== E14b: Property-2-aware design — best j <= k_max per budget ===\n";
  TextTable t({"n", "k_max", "Delta(k=k_max)", "Delta(best)", "chosen k"});
  for (int n : {8, 16, 32, 48, 63}) {
    for (int k_max : {3, 5, 8}) {
      if (k_max >= n) continue;
      const auto fixed = design_sparse_hypercube(n, k_max);
      const auto best = design_best_sparse_hypercube(n, k_max);
      t.add_row({std::to_string(n), std::to_string(k_max),
                 std::to_string(fixed.max_degree()), std::to_string(best.max_degree()),
                 std::to_string(best.k())});
    }
  }
  t.print(std::cout);
  std::cout << "Expected shape: at small n the best design uses fewer levels than\n"
               "the budget allows (rounding waste dominates); as n grows the chosen\n"
               "k climbs toward k_max, matching the asymptotic story.\n\n";
}

void BM_DesignBest(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(design_best_sparse_hypercube(n, 8));
  }
}
BENCHMARK(BM_DesignBest)->Arg(16)->Arg(32)->Arg(63);

void BM_VertexDisjointValidation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spec = design_sparse_hypercube(n, 3);
  const SpecView view(spec);
  const auto schedule = make_broadcast_schedule(spec, 0);
  ValidationOptions strict;
  strict.k = 3;
  strict.require_vertex_disjoint = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_broadcast(view, schedule, strict));
  }
}
BENCHMARK(BM_VertexDisjointValidation)->DenseRange(8, 16, 2);

}  // namespace

int main(int argc, char** argv) {
  print_vertex_disjoint();
  print_design_best();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
