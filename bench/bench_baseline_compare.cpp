// Experiment E11 — sparse hypercubes vs the Q_n baseline (Sections 1-2).
//
// The paper's selling point in one table: for the same vertex count,
// what does raising k buy in maximum degree and edge count, and what
// does it cost in call length?  Includes the star (the minimum-edge
// 2-mlbg of Section 2) as the opposite extreme: fewest edges, maximum
// possible degree.
#include <benchmark/benchmark.h>

#include <iostream>

#include "shc/shc.hpp"

namespace {

using namespace shc;

void print_table() {
  std::cout << "\n=== E11: degree/edges/call-length trade-off at N = 2^12 ===\n";
  TextTable t({"network", "k", "max degree", "edges", "rounds", "max call"});
  const int n = 12;
  {
    const auto schedule = hypercube_binomial_broadcast(n, 0);
    t.add_row({"Q_12 (binomial)", "1", std::to_string(n),
               std::to_string(static_cast<std::uint64_t>(n) << (n - 1)),
               std::to_string(schedule.num_rounds()),
               std::to_string(schedule.max_call_length())});
  }
  for (int k = 2; k <= 6; ++k) {
    const auto spec = design_sparse_hypercube(n, k);
    const auto schedule = make_broadcast_schedule(spec, 0);
    const auto rep =
        validate_minimum_time_k_line(SpecView{spec}, schedule, k);
    t.add_row({"sparse G(12," + std::to_string(k) + ")", std::to_string(k),
               std::to_string(spec.max_degree()), std::to_string(spec.num_edges()),
               std::to_string(rep.rounds), std::to_string(rep.max_call_length)});
  }
  {
    // Star on the same order: 2-mlbg with minimum edges, max degree N-1.
    const VertexId N = static_cast<VertexId>(cube_order(n));
    const auto schedule = star_line_broadcast(N, 0);
    t.add_row({"star K_{1,N-1}", "2", std::to_string(N - 1), std::to_string(N - 1),
               std::to_string(schedule.num_rounds()),
               std::to_string(schedule.max_call_length())});
  }
  t.print(std::cout);
  std::cout << "Expected shape: degree falls from n (Q_n) toward ~k*n^(1/k) as k\n"
               "grows, at constant optimal round count; the star shows why edge\n"
               "count alone is the wrong metric (degree N-1).\n\n";
}

void BM_QnBinomial(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hypercube_binomial_broadcast(n, 0));
  }
}
BENCHMARK(BM_QnBinomial)->DenseRange(8, 18, 2);

void BM_SparseBroadcast(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spec = design_sparse_hypercube(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_broadcast_schedule(spec, 0));
  }
}
BENCHMARK(BM_SparseBroadcast)->DenseRange(8, 18, 2);

void BM_StarBroadcast(benchmark::State& state) {
  const VertexId N = static_cast<VertexId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(star_line_broadcast(N, 1));
  }
}
BENCHMARK(BM_StarBroadcast)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

void BM_PathBroadcast(benchmark::State& state) {
  const VertexId N = static_cast<VertexId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(path_line_broadcast(N, 0));
  }
}
BENCHMARK(BM_PathBroadcast)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
