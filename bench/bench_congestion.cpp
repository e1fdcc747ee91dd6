// Experiment E10 — Section 5's congestion discussion (ablation).
//
// Sparsifying the cube funnels broadcast traffic over fewer edges.  This
// harness quantifies that: total edge hops, distinct edges touched, max
// per-edge load across the schedule, the per-round load (must be 1 —
// the schedules are feasible in the unit-capacity model), and collisions
// against random competing unicast flows.  The dilated-network variant
// (edge capacity c) is exercised via the validator.
#include <benchmark/benchmark.h>

#include <iostream>
#include <random>

#include "shc/shc.hpp"

namespace {

using namespace shc;

void print_congestion_table() {
  std::cout << "\n=== E10: Section 5 — edge congestion of Broadcast_k vs Q_n binomial ===\n";
  TextTable t({"graph", "k", "edges", "hops", "edges used", "mean load",
               "max load", "per-round"});
  const int n = 12;
  {
    const auto schedule = hypercube_binomial_broadcast(n, 0);
    const auto s = analyze_congestion(schedule);
    const Graph q = make_hypercube(n);
    char mean[32];
    std::snprintf(mean, sizeof(mean), "%.2f", s.mean_edge_load);
    t.add_row({"Q_12", "1", std::to_string(q.num_edges()),
               std::to_string(s.total_edge_hops), std::to_string(s.distinct_edges_used),
               mean, std::to_string(s.max_edge_load_total),
               std::to_string(s.max_edge_load_per_round)});
  }
  for (int k : {2, 3, 4}) {
    const auto spec = design_sparse_hypercube(n, k);
    const auto schedule = make_broadcast_schedule(spec, 0);
    const auto s = analyze_congestion(schedule);
    char mean[32];
    std::snprintf(mean, sizeof(mean), "%.2f", s.mean_edge_load);
    t.add_row({"G(12,k=" + std::to_string(k) + ")", std::to_string(k),
               std::to_string(spec.num_edges()), std::to_string(s.total_edge_hops),
               std::to_string(s.distinct_edges_used), mean,
               std::to_string(s.max_edge_load_total),
               std::to_string(s.max_edge_load_per_round)});
  }
  t.print(std::cout);
  std::cout << "Expected shape: larger k -> fewer edges and more hops funneled over\n"
               "them (higher mean/max load), while per-round load stays 1 (the\n"
               "paper's model is respected).\n";
}

void print_competing_traffic() {
  std::cout << "\n--- Competing unicast flows: collisions per round (100 flows) ---\n";
  TextTable t({"graph", "round 1", "mid round", "last round", "total"});
  std::mt19937_64 rng(2026);
  const int n = 12;
  for (int k : {2, 3, 4}) {
    const auto spec = design_sparse_hypercube(n, k);
    const auto schedule = make_broadcast_schedule(spec, 0);
    const auto hits = competing_traffic_collisions(schedule, n, k, 100, rng);
    std::size_t total = 0;
    for (std::size_t h : hits) total += h;
    t.add_row({"G(12,k=" + std::to_string(k) + ")", std::to_string(hits.front()),
               std::to_string(hits[hits.size() / 2]), std::to_string(hits.back()),
               std::to_string(total)});
  }
  t.print(std::cout);
  std::cout << "Expected shape: later rounds carry exponentially more calls, so\n"
               "collisions with background traffic concentrate there.\n";
}

void print_failure_injection() {
  std::cout << "\n--- Failure injection: drop rate vs informed coverage (n=10, k=3) ---\n";
  TextTable t({"drop rate", "calls kept", "informed", "complete"});
  const auto spec = design_sparse_hypercube(10, 3);
  const SpecView view(spec);
  const auto schedule = make_broadcast_schedule(spec, 0);
  std::mt19937_64 rng(7);
  for (double rate : {0.0, 0.01, 0.05, 0.1, 0.25}) {
    const auto degraded = drop_calls(schedule, rate, rng);
    ValidationOptions opt;
    opt.k = 3;
    opt.require_completion = false;
    opt.forbid_redundant_receivers = false;
    const auto rep = validate_broadcast(view, degraded, opt);
    char rs[16];
    std::snprintf(rs, sizeof(rs), "%.2f", rate);
    t.add_row({rs, std::to_string(degraded.num_calls()),
               std::to_string(rep.informed) + "/" + std::to_string(spec.num_vertices()),
               rep.informed == spec.num_vertices() ? "yes" : "no"});
  }
  t.print(std::cout);
  std::cout << "Expected shape: early-round drops cascade — losing a few percent of\n"
               "calls loses a large informed fraction (doubling trees are fragile).\n\n";
}

void BM_CongestionAnalysis(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spec = design_sparse_hypercube(n, 3);
  const auto schedule = make_broadcast_schedule(spec, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_congestion(schedule));
  }
}
BENCHMARK(BM_CongestionAnalysis)->DenseRange(8, 16, 2);

void BM_DropCalls(benchmark::State& state) {
  const auto spec = design_sparse_hypercube(12, 3);
  const auto schedule = make_broadcast_schedule(spec, 0);
  std::mt19937_64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(drop_calls(schedule, 0.05, rng));
  }
}
BENCHMARK(BM_DropCalls);

}  // namespace

int main(int argc, char** argv) {
  print_congestion_table();
  print_competing_traffic();
  print_failure_injection();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
