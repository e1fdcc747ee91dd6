// Experiment E13 — Section 5's gossip direction.
//
// Measures the gossip-time gap the paper leaves open: the full cube
// gossips in the optimal n rounds (dimension exchange, k = 1); on the
// degree-reduced sparse hypercube, the provable gather+broadcast scheme
// needs 2n rounds.  Whether o(n)-degree k-line graphs can gossip in n
// rounds is the open problem; the table quantifies the price currently
// paid for sparsity.
#include <benchmark/benchmark.h>

#include <iostream>

#include "shc/shc.hpp"

namespace {

using namespace shc;

void print_table() {
  std::cout << "\n=== E13: gossip under the k-line model (Section 5 open problem) ===\n";
  TextTable t({"network", "k", "max degree", "rounds", "lower bound", "optimal"});
  for (int n : {6, 8, 10, 12}) {
    {
      const CubeOracle qn(n);
      const auto schedule = hypercube_exchange_gossip(n);
      const auto rep = validate_gossip(qn, schedule, 1);
      t.add_row({"Q_" + std::to_string(n), "1", std::to_string(n),
                 std::to_string(rep.rounds), std::to_string(n),
                 rep.minimum_time ? "yes" : "no"});
    }
    for (int k : {2, 3}) {
      const auto spec = design_sparse_hypercube(n, k);
      const SpecView view(spec);
      const auto schedule = sparse_gather_broadcast_gossip(spec, 0);
      const auto rep = validate_gossip(view, schedule, k);
      t.add_row({"G(" + std::to_string(n) + "," + std::to_string(k) + ")",
                 std::to_string(k), std::to_string(spec.max_degree()),
                 std::to_string(rep.rounds), std::to_string(n),
                 rep.minimum_time ? "yes" : "no"});
    }
  }
  t.print(std::cout);
  std::cout << "Expected shape: Q_n gossips optimally; the sparse graphs complete\n"
               "feasibly in 2n rounds (gather + broadcast) — a 2x gap that is the\n"
               "paper's open question, not a bug.\n\n";
}

void BM_HypercubeGossip(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hypercube_exchange_gossip(n));
  }
}
BENCHMARK(BM_HypercubeGossip)->DenseRange(6, 12, 2);

void BM_SparseGossipSchedule(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spec = design_sparse_hypercube(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse_gather_broadcast_gossip(spec, 0));
  }
}
BENCHMARK(BM_SparseGossipSchedule)->DenseRange(6, 12, 2);

void BM_GossipValidation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spec = design_sparse_hypercube(n, 3);
  const SpecView view(spec);
  const auto schedule = sparse_gather_broadcast_gossip(spec, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_gossip(view, schedule, 3));
  }
}
BENCHMARK(BM_GossipValidation)->DenseRange(6, 12, 2);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
