// Experiment E15 — the flat schedule engine.
//
// Certifies the refactor's two load-bearing claims and records them as a
// perf trajectory (the `record` build target writes BENCH_schedule.json):
//
//   (1) Zero per-call heap allocations: building the full n = 22
//       sparse-hypercube Broadcast_k schedule (2^22 - 1 calls) performs
//       only the handful of arena reservations — counted by a global
//       operator-new hook, independent of the call count.
//   (2) Large-n validation without materialization: the n = 22 schedule
//       validates minimum-time through the SpecView oracle.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "shc/obs/recorder.hpp"
#include "shc/shc.hpp"

// ---- global allocation counter -----------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}

// These ARE the global replacement operators, so malloc/free pairing is
// correct by construction — but GCC's -Wmismatched-new-delete only sees
// "free() on a pointer from operator new" and -Werror would reject it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace shc;

// Flight-recorder base path, set by --trace=BASE (stripped from argv
// before google-benchmark sees it) or the SHC_TRACE environment
// variable.  Each gated symbolic row gets its own session writing
// BASE.<row '/'→'-'>.trace.json and BASE.<row>.rounds.jsonl, so the
// headline certifications come out of a `record` run with per-round
// telemetry attached.  The recorder never feeds a verdict, so the
// gates below are tracing-independent.
std::string g_trace_base;  // NOLINT(runtime/string)

std::unique_ptr<obs::TraceSession> trace_session_for_row(std::string row) {
  if (g_trace_base.empty()) return nullptr;
  for (char& c : row) {
    if (c == '/') c = '-';
  }
  return std::make_unique<obs::TraceSession>(
      obs::trace_options_from_base(g_trace_base + "." + row));
}

template <class Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = g_alloc_count.load();
  fn();
  return g_alloc_count.load() - before;
}

/// The acceptance check behind this bench: a full n = 22 construction
/// must allocate O(1) blocks (arena reservations), not O(#calls), and
/// must validate minimum-time through SpecView.  Exits non-zero on
/// violation so the `record` target doubles as a gate.
void print_flat_engine_proof() {
  std::cout << "\n=== E15: flat schedule engine — n = 22 sparse hypercube ===\n";
  const int n = 22;
  const auto spec = design_sparse_hypercube(n, 2);

  FlatSchedule schedule;
  const std::uint64_t allocs =
      allocations_during([&] { schedule = make_broadcast_schedule(spec, 0); });

  const SpecView view(spec);
  const auto rep = validate_minimum_time_k_line(view, schedule, spec.k());

  TextTable t({"n", "k", "calls", "path vertices", "arena MB", "allocations",
               "validated", "minimum-time"});
  char mb[32];
  std::snprintf(mb, sizeof(mb), "%.1f",
                static_cast<double>(schedule.heap_bytes()) / (1024.0 * 1024.0));
  t.add_row({std::to_string(n), std::to_string(spec.k()),
             std::to_string(schedule.num_calls()),
             std::to_string(schedule.num_path_vertices()), mb,
             std::to_string(allocs), rep.ok ? "yes" : rep.error,
             rep.minimum_time ? "yes" : "no"});
  t.print(std::cout);

  // 2^22 - 1 calls; the builder may touch a few dozen blocks (three
  // arena reservations, the informed scratch vector, assignment moves) —
  // anything growing with the call count is a regression.
  const std::uint64_t budget = 64;
  if (allocs > budget) {
    std::cout << "FAIL: " << allocs << " allocations for "
              << schedule.num_calls() << " calls (budget " << budget << ")\n";
    std::exit(1);
  }
  if (!rep.ok || !rep.minimum_time) {
    std::cout << "FAIL: n=22 schedule did not validate minimum-time: "
              << rep.error << "\n";
    std::exit(1);
  }
  std::cout << "Expected shape: allocations stay a small constant (arena\n"
               "reservations only) while the schedule holds 2^22 - 1 calls in\n"
               "one contiguous pool; validation runs entirely on the implicit\n"
               "SpecView oracle — no materialized graph.\n\n";
}

/// The streaming pipeline's acceptance row: certify Broadcast_k at
/// large n with the round-streamed validator.  The schedule is never
/// materialized; the gate enforces that the scratch arena's high-water
/// mark stays within the largest single round's footprint, and that
/// the verdict is a validated minimum-time broadcast.  n = 30 streams
/// 2^30 - 1 calls (the materialized engine caps at n <= 28).
void BM_StreamingCertify(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spec = design_sparse_hypercube(n, 2);
  ValidationOptions opt;
  opt.k = spec.k();
  StreamingCertification cert;
  for (auto _ : state) {
    cert = certify_broadcast_streaming(spec, 0, opt, /*threads=*/1);
    if (!cert.report.ok || !cert.report.minimum_time) {
      std::cout << "FAIL: streaming n=" << n
                << " did not certify minimum-time: " << cert.report.error << "\n";
      std::exit(1);
    }
    if (cert.peak_round_arena_bytes > cert.largest_round_arena_bytes) {
      std::cout << "FAIL: streaming n=" << n << " peak arena "
                << cert.peak_round_arena_bytes
                << " B exceeds the largest-round bound "
                << cert.largest_round_arena_bytes << " B\n";
      std::exit(1);
    }
  }
  state.counters["calls"] = static_cast<double>(cert.calls);
  state.counters["peak_round_arena_bytes"] =
      static_cast<double>(cert.peak_round_arena_bytes);
  state.counters["largest_round_arena_bytes"] =
      static_cast<double>(cert.largest_round_arena_bytes);
  state.counters["whole_schedule_arena_bytes"] =
      static_cast<double>(cert.whole_schedule_arena_bytes);
  state.counters["peak_edge_table_bytes"] =
      static_cast<double>(cert.peak_edge_table_bytes);
  state.counters["minimum_time"] = cert.report.minimum_time ? 1.0 : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cert.calls));
}
// Trajectory points inside the materialized range.  Single iteration:
// each run is a full 2^n-call production + validation.  The flagship
// n = 30 row (only the streaming engine can certify it) is registered
// at the END of this file: its ~26 GB working set leaves the allocator
// and page state polluted enough to double the wall time of whatever
// runs next, so it must not precede the gated symbolic rows.
BENCHMARK(BM_StreamingCertify)
    ->Arg(20)
    ->Arg(24)
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

/// The symbolic engine's acceptance rows: certify Broadcast_k entirely
/// on the subcube group structure — n = 40/48 past any explicit
/// representation, and n = 63 at the vertex-representation limit
/// (2^63 - 1 calls).  Memory is polynomial in n; the gate enforces a
/// validated minimum-time verdict and the exact 2^n - 1 call count.
/// Spec policy is symbolic_showcase_spec, shared with shc_sweep
/// --symbolic so both recorded artifacts measure the same graphs
/// (designed cuts up to n = 48; construct_base(n, 6) beyond, where the
/// designed frontiers exceed the collision budget).
void BM_SymbolicCertify(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spec = symbolic_showcase_spec(n, 2);
  ValidationOptions opt;
  opt.k = spec.k();
  const auto trace =
      trace_session_for_row("BM_SymbolicCertify/" + std::to_string(n));
  SymbolicCertification cert;
  for (auto _ : state) {
    cert = certify_broadcast_symbolic(spec, 0, opt);
    if (!cert.report.ok || !cert.report.minimum_time) {
      std::cout << "FAIL: symbolic n=" << n
                << " did not certify minimum-time: " << cert.report.error
                << "\n";
      std::exit(1);
    }
    if (cert.report.total_calls != cube_order(n) - 1) {
      std::cout << "FAIL: symbolic n=" << n << " certified "
                << cert.report.total_calls << " calls, expected 2^" << n
                << " - 1\n";
      std::exit(1);
    }
  }
  // Note: `calls` loses precision as a double counter beyond 2^53; the
  // exact count is gated above.
  state.counters["calls"] = static_cast<double>(cert.report.total_calls);
  state.counters["groups"] = static_cast<double>(cert.checks.groups);
  state.counters["peak_frontier_subcubes"] =
      static_cast<double>(cert.checks.peak_frontier_subcubes);
  state.counters["peak_round_groups"] =
      static_cast<double>(cert.checks.peak_round_groups);
  state.counters["sampled_calls"] =
      static_cast<double>(cert.checks.sampled_calls);
  state.counters["rounds_checked"] =
      static_cast<double>(cert.checks.rounds_checked);
  state.counters["minimum_time"] = cert.report.minimum_time ? 1.0 : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cert.checks.groups));
}
BENCHMARK(BM_SymbolicCertify)
    ->Arg(40)
    ->Arg(48)
    ->Arg(63)
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

/// Certifies broadcast on `spec` from vertex 0 as the bench row `row`,
/// exiting 1 unless the verdict is minimum-time with exactly 2^n - 1
/// calls.  Shared by the designed-spec rows below.
void certify_designed_row(benchmark::State& state, const SparseHypercubeSpec& spec,
                          const std::string& row) {
  const int n = spec.n();
  ValidationOptions opt;
  opt.k = spec.k();
  const auto trace = trace_session_for_row(row);
  SymbolicCertification cert;
  for (auto _ : state) {
    cert = certify_broadcast_symbolic(spec, 0, opt);
    if (!cert.report.ok || !cert.report.minimum_time) {
      std::cout << "FAIL: " << row << " did not certify minimum-time: "
                << cert.report.error << "\n";
      std::exit(1);
    }
    if (cert.report.total_calls != cube_order(n) - 1) {
      std::cout << "FAIL: " << row << " certified " << cert.report.total_calls
                << " calls, expected 2^" << n << " - 1\n";
      std::exit(1);
    }
  }
  state.counters["calls"] = static_cast<double>(cert.report.total_calls);
  state.counters["groups"] = static_cast<double>(cert.checks.groups);
  state.counters["peak_frontier_subcubes"] =
      static_cast<double>(cert.checks.peak_frontier_subcubes);
  state.counters["peak_round_groups"] =
      static_cast<double>(cert.checks.peak_round_groups);
  state.counters["occupancy_claims"] =
      static_cast<double>(cert.checks.occupancy_claims);
  state.counters["sampled_calls"] = static_cast<double>(cert.checks.sampled_calls);
  state.counters["rounds_checked"] =
      static_cast<double>(cert.checks.rounds_checked);
  state.counters["minimum_time"] = cert.report.minimum_time ? 1.0 : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cert.checks.groups));
}

/// The designed-spec headline row: the paper's own construct(63, 10)
/// (Theorem 5's m* = 10 core) certified end to end — ~150 M call
/// groups, an ~11 M-subcube peak frontier, 2^63 - 1 calls — which a
/// quadratic candidate-pair collision sweep could never finish (it
/// burned its budget at round 52).  The dyadic occupancy ledger closes it within
/// default budgets; the gate enforces the minimum-time verdict and the
/// exact call/group counts so any engine drift fails the recording.
void BM_SymbolicCertifyDesigned(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  certify_designed_row(state, SparseHypercubeSpec::construct(n, {theorem5_core(n)}),
                       "BM_SymbolicCertifyDesigned/" + std::to_string(n));
}
BENCHMARK(BM_SymbolicCertifyDesigned)
    ->Arg(63)
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

/// design_sparse_hypercube(n, 2) below the 2^32 bitmap limit: about
/// 24 k groups, so the row is milliseconds only while the per-round
/// sampled replay costs O(sampled calls) — it once zero-filled 2^n-bit
/// vertex bitmaps every round (seconds and hundreds of MB at n = 30).
/// The gate pins the group and sampled-call counts and the verdict.
void BM_SymbolicCertifyDesignedK2(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  certify_designed_row(state, design_sparse_hypercube(n, 2),
                       "BM_SymbolicCertifyDesigned/k2/" + std::to_string(n));
}
BENCHMARK(BM_SymbolicCertifyDesignedK2)
    ->Name("BM_SymbolicCertifyDesigned/k2")
    ->Arg(30)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// The symbolic gossip engine's acceptance rows: certify gather-
/// broadcast all-to-all exchange far past the exact validator's 2^13
/// wall — n = 40 is 2^41 - 2 exchanges certified in minutes on one
/// core, a regime the N^2-bit exact tracker cannot touch at any cost.
/// Spec policy is symbolic_showcase_spec, shared with BM_SymbolicCertify
/// and shc_sweep so every recorded artifact measures the same graphs.
/// The gate enforces completion, the exact 2n round count, and the
/// exact 2 * (2^n - 1) exchange count.
void BM_SymbolicGossip(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spec = symbolic_showcase_spec(n, 2);
  const auto trace =
      trace_session_for_row("BM_SymbolicGossip/" + std::to_string(n));
  SymbolicGossipCertification cert;
  for (auto _ : state) {
    cert = certify_gossip_symbolic(spec, 0);
    if (!cert.report.ok || !cert.report.complete) {
      std::cout << "FAIL: symbolic gossip n=" << n
                << " did not certify completion: " << cert.report.error << "\n";
      std::exit(1);
    }
    if (cert.report.rounds != 2 * n ||
        cert.report.total_exchanges != 2 * (cube_order(n) - 1)) {
      std::cout << "FAIL: symbolic gossip n=" << n << " certified "
                << cert.report.rounds << " rounds / "
                << cert.report.total_exchanges << " exchanges, expected "
                << 2 * n << " / 2 * (2^" << n << " - 1)\n";
      std::exit(1);
    }
  }
  state.counters["exchanges"] = static_cast<double>(cert.report.total_exchanges);
  state.counters["groups"] = static_cast<double>(cert.checks.groups);
  state.counters["peak_classes"] =
      static_cast<double>(cert.checks.classes.peak_classes);
  state.counters["peak_knowledge_subcubes"] =
      static_cast<double>(cert.checks.classes.peak_knowledge_subcubes);
  state.counters["unions"] =
      static_cast<double>(cert.checks.classes.unions_computed);
  state.counters["union_cache_hits"] =
      static_cast<double>(cert.checks.classes.union_cache_hits);
  state.counters["union_cache_misses"] =
      static_cast<double>(cert.checks.classes.union_cache_misses);
  state.counters["rounds_checked"] =
      static_cast<double>(cert.checks.rounds_checked);
  state.counters["reduce_tree_tasks"] =
      static_cast<double>(cert.checks.classes.reduce_tree_tasks);
  state.counters["sampled_calls"] =
      static_cast<double>(cert.checks.sampled_calls);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cert.checks.groups));
}
BENCHMARK(BM_SymbolicGossip)
    ->Arg(26)
    ->Arg(33)
    ->Arg(40)
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

/// Thread-scaling row of the symbolic engine: the designed n = 47 spec
/// (Theorem 5 core — large enough that the sharded checks and pooled
/// merge trees dominate) certified at 1/2/4/8 threads.  The rows are
/// counter-gated only (wall time depends on the host's core count);
/// what check_bench.py enforces is the determinism contract — every
/// thread count must report the exact same group/frontier/claim
/// counters, because the report is bit-for-bit thread-invariant.
void BM_SymbolicCertifyThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int n = 47;
  const auto spec = SparseHypercubeSpec::construct(n, {theorem5_core(n)});
  ValidationOptions opt;
  opt.k = spec.k();
  SymbolicCheckOptions sopt;
  sopt.threads = threads;
  SymbolicCertification cert;
  for (auto _ : state) {
    cert = certify_broadcast_symbolic(spec, 0, opt, sopt);
    if (!cert.report.ok || !cert.report.minimum_time) {
      std::cout << "FAIL: designed symbolic n=" << n << " threads=" << threads
                << " did not certify minimum-time: " << cert.report.error
                << "\n";
      std::exit(1);
    }
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["groups"] = static_cast<double>(cert.checks.groups);
  state.counters["peak_frontier_subcubes"] =
      static_cast<double>(cert.checks.peak_frontier_subcubes);
  state.counters["occupancy_claims"] =
      static_cast<double>(cert.checks.occupancy_claims);
  state.counters["rounds_checked"] =
      static_cast<double>(cert.checks.rounds_checked);
  state.counters["minimum_time"] = cert.report.minimum_time ? 1.0 : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cert.checks.groups));
}
BENCHMARK(BM_SymbolicCertifyThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

// ---- certification service rows -----------------------------------------

/// The saturating-throughput row of the ServeEngine: a serial warm-up
/// populates the certificate cache (one cold run per distinct key),
/// then `clients` concurrent client threads replay the key mix and
/// every response must come out of the cache.  Counter-gated exactly
/// (queries / ok / cache_hits / distinct_keys — cache accounting drift
/// fails the recording); wall time and the p95 counter are ungated,
/// and `qps` is the measured saturated service rate ROADMAP cites.
void BM_ServeThroughput(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  constexpr int kPerClient = 32;
  const std::vector<std::string> keys = {
      "{\"workload\":\"broadcast-streaming\",\"n\":10,\"k\":2}",
      "{\"workload\":\"broadcast-streaming\",\"n\":12,\"k\":3}",
      "{\"workload\":\"broadcast-symbolic\",\"n\":12,\"k\":2}",
      "{\"workload\":\"broadcast-symbolic\",\"n\":14,\"k\":2}",
      "{\"workload\":\"gossip-symbolic\",\"n\":10,\"k\":2}",
      "{\"workload\":\"gossip-symbolic\",\"n\":12,\"k\":2}",
      "{\"workload\":\"exchange-gossip\",\"n\":10}",
      "{\"workload\":\"exchange-gossip\",\"n\":12}",
  };
  ServeEngine engine{ServeOptions{}};
  for (const std::string& q : keys) {
    if (engine.handle_line(q).find("\"ok\":true") == std::string::npos) {
      std::cout << "FAIL: serve warm-up query did not certify: " << q << "\n";
      std::exit(1);
    }
  }
  std::vector<double> p95_ms(1, 0.0);
  for (auto _ : state) {
    std::vector<std::vector<std::uint64_t>> lat_ns(
        static_cast<std::size_t>(clients));
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        for (int q = 0; q < kPerClient; ++q) {
          const auto t0 = std::chrono::steady_clock::now();
          const std::string row =
              engine.handle_line(keys[static_cast<std::size_t>(q) % keys.size()]);
          const auto t1 = std::chrono::steady_clock::now();
          lat_ns[static_cast<std::size_t>(c)].push_back(
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                      .count()));
          if (row.find("\"cache_hit\":true") == std::string::npos) {
            std::cout << "FAIL: saturated serve query missed the cache: " << row
                      << "\n";
            std::exit(1);
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
    std::vector<std::uint64_t> all;
    for (const auto& v : lat_ns) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    p95_ms[0] =
        static_cast<double>(all[all.size() - 1 - all.size() / 20]) / 1e6;
  }
  const ServeStats stats = engine.stats();
  const std::uint64_t served =
      static_cast<std::uint64_t>(clients) * kPerClient;
  if (stats.ok != stats.queries || stats.errors != 0 || stats.refused != 0 ||
      stats.cache_hits != served || stats.cache_misses != keys.size()) {
    std::cout << "FAIL: serve stats drifted: queries=" << stats.queries
              << " ok=" << stats.ok << " hits=" << stats.cache_hits
              << " misses=" << stats.cache_misses << " errors=" << stats.errors
              << "\n";
    std::exit(1);
  }
  state.counters["queries"] = static_cast<double>(stats.queries);
  state.counters["ok"] = static_cast<double>(stats.ok);
  state.counters["cache_hits"] = static_cast<double>(stats.cache_hits);
  state.counters["distinct_keys"] = static_cast<double>(keys.size());
  state.counters["p95_ms"] = p95_ms[0];
  state.counters["qps"] = benchmark::Counter(static_cast<double>(served),
                                             benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(served));
}
BENCHMARK(BM_ServeThroughput)->Arg(64)->Iterations(1)->Unit(benchmark::kSecond);

/// The mixed-load row: one designed-47 certification (the same spec as
/// BM_SymbolicCertifyThreads — over the default heavy-admission
/// threshold, so it occupies the single heavy slot) runs to completion
/// while 64 client threads stream small queries.  The gate enforces
/// that the heavy query certifies, every small query certifies, and
/// nothing is refused — the service stays responsive under a heavy
/// tenant instead of queueing behind it.
void BM_ServeThroughputMixed(benchmark::State& state) {
  const int n_heavy = static_cast<int>(state.range(0));
  constexpr int kClients = 64;
  constexpr int kPerClient = 16;
  const std::string heavy_req =
      "{\"workload\":\"broadcast-symbolic\",\"n\":" + std::to_string(n_heavy) +
      ",\"cuts\":[" + std::to_string(theorem5_core(n_heavy)) + "]}";
  const std::vector<std::string> small = {
      "{\"workload\":\"broadcast-streaming\",\"n\":10,\"k\":2}",
      "{\"workload\":\"broadcast-symbolic\",\"n\":12,\"k\":2}",
      "{\"workload\":\"gossip-symbolic\",\"n\":10,\"k\":2}",
      "{\"workload\":\"exchange-gossip\",\"n\":10}",
  };
  for (auto _ : state) {
    ServeEngine engine{ServeOptions{}};
    std::string heavy_row;
    std::atomic<std::uint64_t> small_bad{0};
    std::thread heavy(
        [&] { heavy_row = engine.handle_line(heavy_req); });
    std::vector<std::thread> pool;
    pool.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      pool.emplace_back([&] {
        for (int q = 0; q < kPerClient; ++q) {
          const std::string row =
              engine.handle_line(small[static_cast<std::size_t>(q) % small.size()]);
          if (row.find("\"ok\":true") == std::string::npos) ++small_bad;
        }
      });
    }
    heavy.join();
    for (std::thread& t : pool) t.join();
    const ServeStats stats = engine.stats();
    if (heavy_row.find("\"ok\":true") == std::string::npos) {
      std::cout << "FAIL: heavy designed-" << n_heavy
                << " query did not certify under mixed load: " << heavy_row
                << "\n";
      std::exit(1);
    }
    if (small_bad.load() != 0 || stats.refused != 0 || stats.errors != 0) {
      std::cout << "FAIL: mixed-load small queries degraded: bad="
                << small_bad.load() << " refused=" << stats.refused
                << " errors=" << stats.errors << "\n";
      std::exit(1);
    }
    state.counters["small_queries"] =
        static_cast<double>(kClients) * kPerClient;
    state.counters["heavy_ok"] = 1.0;
    state.counters["refused"] = static_cast<double>(stats.refused);
  }
}
BENCHMARK(BM_ServeThroughputMixed)
    ->Arg(47)
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

// ---- SoA kernel microbenches -------------------------------------------
//
// Throughput of the batch kernels in isolation (entries per second over
// a family that fits in L2), so kernel-level regressions show up
// without a 7-minute designed-spec run.  Time-ungated in check_bench
// (sub-noise-floor rows); the designed-63 row is the end-to-end gate.

/// Random SoA family (and a parallel id permutation) shared by the
/// kernel benches.
struct KernelFixture {
  SubcubeSoA family;
  std::vector<std::uint32_t> ids;
  std::vector<std::uint64_t> vals;

  explicit KernelFixture(std::size_t count, int n = 40) {
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    auto next = [&s] {
      s ^= s >> 12;
      s ^= s << 25;
      s ^= s >> 27;
      return s * 0x2545f4914f6cdd1dull;
    };
    for (std::size_t i = 0; i < count; ++i) {
      const Vertex mask = next() & mask_low(n);
      const Vertex prefix = next() & mask_low(n) & ~mask;
      family.push_back(prefix, mask);
      ids.push_back(static_cast<std::uint32_t>(i));
      vals.push_back(next() % 4);
    }
  }
};

void BM_SubcubeKernels_PartitionIds(benchmark::State& state) {
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  const KernelFixture fx(count);
  std::vector<std::uint32_t> lo, hi;
  for (auto _ : state) {
    batch::partition_ids(fx.ids.data(), fx.ids.size(), fx.family.prefix.data(),
                         fx.family.mask.data(), Vertex{1} << 17, lo, hi);
    benchmark::DoNotOptimize(lo.data());
    benchmark::DoNotOptimize(hi.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_SubcubeKernels_PartitionIds)->Arg(1 << 14);

void BM_SubcubeKernels_SiblingScan(benchmark::State& state) {
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  const KernelFixture fx(count);
  Vertex probe = 0;
  for (auto _ : state) {
    const batch::SiblingProbe r =
        batch::sibling_probe(fx.family.prefix.data(), fx.vals.data(),
                             fx.family.size(), probe & mask_low(40), 1);
    probe ^= r.bit | r.hit;
    benchmark::DoNotOptimize(probe);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_SubcubeKernels_SiblingScan)->Arg(1 << 14);

void BM_SubcubeKernels_MaskScan(benchmark::State& state) {
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  const KernelFixture fx(count);
  for (auto _ : state) {
    const batch::MaskScan s = batch::scan_ids(fx.ids.data(), fx.ids.size(),
                                              fx.family.prefix.data(),
                                              fx.family.mask.data());
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_SubcubeKernels_MaskScan)->Arg(1 << 14);

void BM_FlatScheduleConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spec = design_sparse_hypercube(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_broadcast_schedule(spec, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cube_order(n) - 1));
}
BENCHMARK(BM_FlatScheduleConstruction)->DenseRange(12, 20, 2);

void BM_FlatValidationSpecView(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spec = design_sparse_hypercube(n, 2);
  const auto schedule = make_broadcast_schedule(spec, 0);
  const SpecView view(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_minimum_time_k_line(view, schedule, spec.k()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(schedule.num_calls()));
}
BENCHMARK(BM_FlatValidationSpecView)->DenseRange(12, 18, 2);

void BM_CongestionAnalysis(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spec = design_sparse_hypercube(n, 2);
  const auto schedule = make_broadcast_schedule(spec, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_congestion(schedule));
  }
}
BENCHMARK(BM_CongestionAnalysis)->DenseRange(12, 18, 2);

// The flagship big-memory streaming row, last on purpose — see the
// comment at the other BM_StreamingCertify registration.  Same row
// name, so the gate and the trend report are unaffected by the order.
BENCHMARK(BM_StreamingCertify)
    ->Arg(30)
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark rejects flags it does not recognize, so --trace=BASE
  // is parsed and stripped from argv before Initialize sees it.  SHC_TRACE
  // supplies the same base when the flag is absent.
  int kept = 1;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--trace=", 0) == 0) {
      g_trace_base = arg.substr(std::string("--trace=").size());
    } else {
      argv[kept++] = argv[a];
    }
  }
  argc = kept;
  argv[argc] = nullptr;
  if (g_trace_base.empty()) {
    if (const char* env = std::getenv("SHC_TRACE")) g_trace_base = env;
  }
  print_flat_engine_proof();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
