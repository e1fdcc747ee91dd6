// Experiments E5 and E6 — Example 4 / Figure 4 and Theorems 4 / 6.
//
// E5 replays the paper's broadcast trace in G_{4,2} from 0000 and prints
// it in the Figure-4 style.  E6 sweeps constructions across n and k and
// validates the Broadcast_k scheme from every source — the mechanical
// counterpart of Theorems 4 and 6.
#include <benchmark/benchmark.h>

#include <iostream>

#include "shc/shc.hpp"

namespace {

using namespace shc;

void print_trace() {
  std::cout << "\n=== E5: Example 4 / Figure 4 — broadcast in G_{4,2} from 0000 ===\n";
  const auto g42 = SparseHypercubeSpec::construct_base(4, 2, example1_labeling_m2());
  const auto schedule = make_broadcast_schedule(g42, 0);
  std::cout << format_schedule(schedule, 4);
  const auto rep = validate_minimum_time_k_line(SpecView{g42}, schedule, 2);
  std::cout << "validated: " << (rep.ok ? "ok" : rep.error)
            << ", minimum-time: " << (rep.minimum_time ? "yes" : "no")
            << ", max call length: " << rep.max_call_length << "\n";
  std::cout << "Expected shape: 4 rounds; round 1 is a single length-2 call through\n"
               "a Rule-1 neighbor into the 1xxx half (the paper reaches 1010 via\n"
               "0010; the symmetric witness 1001 via 0001 is equally legal); final\n"
               "rounds flood the 2-cubes with direct calls.\n";
}

void print_all_sources_table() {
  std::cout << "\n=== E6: Theorems 4 & 6 — minimum-time k-line broadcast, all sources ===\n";
  TextTable t({"n", "k", "cuts", "Delta", "rounds", "max len", "sources ok"});
  const std::vector<std::pair<int, int>> cases = {
      {8, 2}, {10, 2}, {12, 2}, {9, 3}, {12, 3}, {10, 4}, {12, 4}, {12, 5}};
  for (const auto& [n, k] : cases) {
    const auto spec = design_sparse_hypercube(n, k);
    const SpecView view(spec);
    std::string cuts;
    for (int c : spec.cuts()) {
      // Piecewise append dodges GCC 12's bogus -Wrestrict on
      // operator+(const char*, string&&) under -Werror.
      if (!cuts.empty()) cuts += ',';
      cuts += std::to_string(c);
    }
    std::uint64_t ok = 0;
    int max_len = 0;
    const std::uint64_t stride = spec.num_vertices() > 1024 ? 37 : 1;
    std::uint64_t tried = 0;
    for (Vertex s = 0; s < spec.num_vertices(); s += stride) {
      ++tried;
      const auto rep =
          validate_minimum_time_k_line(view, make_broadcast_schedule(spec, s), k);
      if (rep.ok && rep.minimum_time) ++ok;
      max_len = std::max(max_len, rep.max_call_length);
    }
    t.add_row({std::to_string(n), std::to_string(k), cuts,
               std::to_string(spec.max_degree()), std::to_string(n),
               std::to_string(max_len),
               std::to_string(ok) + "/" + std::to_string(tried)});
  }
  t.print(std::cout);
  std::cout << "Expected shape: every source broadcasts in exactly n rounds with\n"
               "calls of length <= k (Definition 3 holds: the graphs are k-mlbgs).\n\n";
}

void BM_ScheduleGeneration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spec = design_sparse_hypercube(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_broadcast_schedule(spec, 0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cube_order(n) - 1));
}
BENCHMARK(BM_ScheduleGeneration)->DenseRange(8, 20, 2);

void BM_ScheduleValidation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spec = design_sparse_hypercube(n, 3);
  const SpecView view(spec);
  const auto schedule = make_broadcast_schedule(spec, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_minimum_time_k_line(view, schedule, 3));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(schedule.num_calls()));
}
BENCHMARK(BM_ScheduleValidation)->DenseRange(8, 18, 2);

void BM_RouteFlip(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spec = design_sparse_hypercube(n, 4);
  Vertex u = 0;
  Dim i = n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(route_flip(spec, u, i));
    u = (u + 0x9E3779B97F4A7C15ULL) & mask_low(n);
    i = (i % n) + 1;
  }
}
BENCHMARK(BM_RouteFlip)->Arg(16)->Arg(32)->Arg(48);

}  // namespace

int main(int argc, char** argv) {
  print_trace();
  print_all_sources_table();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
