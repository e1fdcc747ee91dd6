// Experiment E1 — Theorem 1 / Figure 1.
//
// Regenerates the paper's large-k claim: for every k >=
// 2*ceil(log2((N+2)/3)) there is a k-mlbg with maximum degree 3 — the
// two-binary-tree family of Figure 1.  The table reports, per height h:
// order N = 3*2^h - 2, max degree, diameter (= the k threshold), and the
// measured broadcast round count from the worst source, which must equal
// ceil(log2 N) for the family to witness the theorem.
#include <benchmark/benchmark.h>

#include <iostream>

#include "shc/shc.hpp"

namespace {

using namespace shc;

void print_table() {
  std::cout << "\n=== E1: Theorem 1 / Figure 1 — degree-3 trees for large k ===\n";
  TextTable t({"h", "N", "maxdeg", "diam", "k_threshold", "ceil(log2 N)",
               "worst rounds", "max call len", "all sources ok"});
  for (int h = 1; h <= 8; ++h) {
    const Graph g = make_theorem1_tree(h);
    const GraphView view(g);
    const int k = theorem1_k_threshold(g.num_vertices());
    int worst_rounds = 0;
    int worst_len = 0;
    bool all_ok = true;
    for (VertexId s = 0; s < g.num_vertices(); ++s) {
      const auto result = theorem1_tree_broadcast(h, s);
      const auto rep = validate_minimum_time_k_line(view, result.schedule, k);
      all_ok = all_ok && rep.ok && rep.minimum_time;
      worst_rounds = std::max(worst_rounds, rep.rounds);
      worst_len = std::max(worst_len, rep.max_call_length);
    }
    t.add_row({std::to_string(h), std::to_string(g.num_vertices()),
               std::to_string(g.max_degree()), std::to_string(diameter(g)),
               std::to_string(k), std::to_string(ceil_log2(g.num_vertices())),
               std::to_string(worst_rounds), std::to_string(worst_len),
               all_ok ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "Expected shape: maxdeg = 3, diam = k_threshold = 2h, worst rounds =\n"
               "ceil(log2 N) from every source (Theorem 1's witness family).\n\n";
}

void BM_Theorem1TreeConstruction(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_theorem1_tree(h));
  }
  state.SetComplexityN(static_cast<std::int64_t>(theorem1_tree_order(h)));
}
BENCHMARK(BM_Theorem1TreeConstruction)->DenseRange(2, 12, 2)->Complexity();

void BM_Theorem1TreeScheduling(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(theorem1_tree_broadcast(h, 0));
  }
}
BENCHMARK(BM_Theorem1TreeScheduling)->DenseRange(2, 8, 1);

void BM_Theorem1TreeValidation(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  const Graph g = make_theorem1_tree(h);
  const GraphView view(g);
  const auto result = theorem1_tree_broadcast(h, 1);
  const int k = theorem1_k_threshold(g.num_vertices());
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_minimum_time_k_line(view, result.schedule, k));
  }
}
BENCHMARK(BM_Theorem1TreeValidation)->DenseRange(2, 8, 1);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
