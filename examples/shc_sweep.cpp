// shc_sweep — grid sweep of streaming-certified broadcast scenarios.
//
// Runs a grid of (n, k/cuts, model-variant) scenarios through the
// certification facade (shc/api/certify.hpp): each scenario is one
// CertifyRequest dispatched to the streaming / symbolic / gossip
// engine, with congestion analysis attached for the materializable
// sizes, and one JSON record per scenario via to_json_row — the facade
// owns the row schema now; this tool only builds requests.  Scenarios
// run in parallel across a worker pool; output order is deterministic
// (grid order).
//
// Usage:
//   shc_sweep [--threads T] [--out PATH] [--max-n N] [--big N] [--symbolic N]
//             [--gossip N]
//
//   --threads T   scenario workers (default: hardware concurrency)
//   --out PATH    write JSON lines to PATH instead of stdout
//   --max-n N     cap the grid's n (default 16)
//   --big N       append one streaming-only k=2 scenario at n=N
//                 (e.g. --big 30; needs RAM for the 2^N frontier)
//   --symbolic N  append one symbolic-engine k=2 scenario at n=N
//                 (n <= 63; memory polynomial in n — no 2^N anything)
//   --gossip N    append one symbolic gather-broadcast gossip scenario
//                 at n=N (n <= 63; all-to-all exchange certified past
//                 the exact validator's 2^13 wall)
//   --trace PATH  install a flight-recorder session for the whole sweep
//                 ("x.json" -> Chrome trace only, "x.jsonl" -> per-round
//                 JSONL only, else both PATH.trace.json and
//                 PATH.rounds.jsonl).  Forces --threads 1 so the traced
//                 scenarios do not interleave.
#include <atomic>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "shc/obs/recorder.hpp"
#include "shc/shc.hpp"

namespace {

using namespace shc;

struct Scenario {
  int n = 0;
  int k = 2;
  bool vertex_disjoint = false;
  bool analyze_congestion_stats = false;  // materialize + edge-load stats
  bool symbolic = false;                  // subcube engine instead of streaming
  bool gossip = false;                    // symbolic gather-broadcast gossip
  int inner_threads = 1;                  // workers inside the validator
};

/// Builds the scenario's facade request.  Symbolic/gossip scenarios
/// pin the spec policy shared with the BM_SymbolicCertify bench rows
/// (symbolic_showcase_spec) by passing its cut vector explicitly, so
/// both recorded artifacts keep measuring the same graphs; streaming
/// scenarios let the facade run design_sparse_hypercube(n, k).
CertifyRequest scenario_request(const Scenario& sc) {
  CertifyRequest req;
  req.n = sc.n;
  req.k = sc.k;
  req.vertex_disjoint = sc.vertex_disjoint;
  req.checks.threads = sc.inner_threads;
  if (sc.gossip || sc.symbolic) {
    req.workload =
        sc.gossip ? Workload::kGossipSymbolic : Workload::kBroadcastSymbolic;
    req.cuts = symbolic_showcase_spec(sc.n, sc.k).cuts();
  } else {
    req.workload = Workload::kBroadcastStreaming;
    req.with_congestion = sc.analyze_congestion_stats;
  }
  return req;
}

std::string run_scenario(const Scenario& sc) {
  return to_json_row(certify(scenario_request(sc)));
}

/// Strict parse: the whole argument must be a number, or we exit with
/// usage — a silently-defaulted typo would drop scenarios from the
/// sweep while still exiting 0.
int parse_int_or_die(const char* s) {
  int v = 0;
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc{} || ptr != end) {
    std::cerr << "shc_sweep: not a number: " << s << "\n";
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  int max_n = 16;
  int big_n = 0;
  int symbolic_n = 0;
  int gossip_n = 0;
  std::string out_path;
  std::string trace_base;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--threads" && a + 1 < argc) threads = parse_int_or_die(argv[++a]);
    else if (arg == "--out" && a + 1 < argc) out_path = argv[++a];
    else if (arg == "--max-n" && a + 1 < argc) max_n = parse_int_or_die(argv[++a]);
    else if (arg == "--big" && a + 1 < argc) big_n = parse_int_or_die(argv[++a]);
    else if (arg == "--symbolic" && a + 1 < argc) {
      symbolic_n = parse_int_or_die(argv[++a]);
    } else if (arg == "--gossip" && a + 1 < argc) {
      gossip_n = parse_int_or_die(argv[++a]);
    } else if (arg == "--trace" && a + 1 < argc) {
      trace_base = argv[++a];
    } else {
      std::cerr << "usage: shc_sweep [--threads T] [--out PATH] [--max-n N] "
                   "[--big N] [--symbolic N] [--gossip N] [--trace PATH]\n";
      return 2;
    }
  }
  // Tracing serializes the sweep: with one scenario in flight at a time
  // the recorded phase scopes and round marks belong to one scenario
  // each instead of interleaving into an unreadable braid.  (Report
  // contents are tracing-independent either way — the recorder never
  // feeds a verdict.)
  std::unique_ptr<obs::TraceSession> trace;
  if (!trace_base.empty()) {
    threads = 1;
    trace = std::make_unique<obs::TraceSession>(
        obs::trace_options_from_base(trace_base));
  }
  if (big_n > 32 || max_n > 32) {
    std::cerr << "shc_sweep: n is capped at 32 (the streaming producer holds "
                 "the 2^n-vertex frontier in memory); use --symbolic for "
                 "n <= 63\n";
    return 2;
  }
  if (symbolic_n > kMaxCubeDim || gossip_n > kMaxCubeDim) {
    std::cerr << "shc_sweep: --symbolic/--gossip n is capped at " << kMaxCubeDim
              << " (the vertex representation limit)\n";
    return 2;
  }

  std::vector<Scenario> grid;
  for (int n = 8; n <= max_n; n += 2) {
    for (int k = 2; k <= 4; ++k) {
      for (const bool vd : {false, true}) {
        Scenario sc;
        sc.n = n;
        sc.k = k;
        sc.vertex_disjoint = vd;
        sc.analyze_congestion_stats = !vd && n <= 14;
        grid.push_back(sc);
      }
    }
  }
  // The flagship --big scenario runs single-flight *after* the grid
  // pool joins (it gets the whole worker budget internally), so its
  // recorded seconds are not polluted by grid contention.
  Scenario big;
  if (big_n > 0) {
    big.n = big_n;
    big.k = 2;
    big.inner_threads = threads;
  }

  // Open the output before doing any work, so a bad path fails fast
  // instead of discarding a finished sweep.
  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::cerr << "shc_sweep: cannot open " << out_path << "\n";
      return 1;
    }
  }
  std::ostream& out = out_path.empty() ? std::cout : file;

  // Scenario-level pool; results land by index so output is grid-ordered.
  std::vector<std::string> results(grid.size());
  std::atomic<std::size_t> next{0};
  const int workers =
      std::max(1, std::min<int>(threads, static_cast<int>(grid.size())));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= results.size()) return;
        try {
          results[i] = run_scenario(grid[i]);
        } catch (const std::exception& e) {
          // An exception escaping a std::thread would std::terminate and
          // lose the whole sweep; record the failure instead.
          results[i] = "{\"n\":" + std::to_string(grid[i].n) +
                       ",\"k\":" + std::to_string(grid[i].k) +
                       ",\"ok\":false,\"error\":\"" + json_escape(e.what()) +
                       "\"}";
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();

  // Grid results are flushed before the flagship row runs: if the
  // big-memory scenario dies (e.g. bad_alloc on an undersized box) the
  // finished sweep is already on disk.
  bool all_ok = true;
  auto emit = [&](const std::string& line) {
    out << line << '\n';
    if (line.find("\"ok\":false") != std::string::npos) all_ok = false;
  };
  for (const std::string& line : results) emit(line);
  out.flush();

  std::size_t emitted = results.size();
  if (big_n > 0) {
    try {
      emit(run_scenario(big));
    } catch (const std::exception& e) {
      emit("{\"n\":" + std::to_string(big_n) + ",\"ok\":false,\"error\":\"" +
           json_escape(e.what()) + "\"}");
    }
    ++emitted;
  }
  if (symbolic_n > 0) {
    Scenario sc;
    sc.n = symbolic_n;
    sc.k = 2;
    sc.symbolic = true;
    try {
      emit(run_scenario(sc));
    } catch (const std::exception& e) {
      emit("{\"engine\":\"symbolic\",\"n\":" + std::to_string(symbolic_n) +
           ",\"ok\":false,\"error\":\"" + json_escape(e.what()) + "\"}");
    }
    ++emitted;
  }
  if (gossip_n > 0) {
    Scenario sc;
    sc.n = gossip_n;
    sc.k = 2;
    sc.gossip = true;
    try {
      emit(run_scenario(sc));
    } catch (const std::exception& e) {
      emit("{\"engine\":\"symbolic-gossip\",\"n\":" + std::to_string(gossip_n) +
           ",\"ok\":false,\"error\":\"" + json_escape(e.what()) + "\"}");
    }
    ++emitted;
  }
  if (!out_path.empty()) {
    std::cout << "shc_sweep: " << emitted << " scenarios -> " << out_path
              << "\n";
  }
  return all_ok ? 0 : 1;
}
