// broadcast-c7: one client in a closed loop calling shc::certify on
// symbolic broadcast over SparseHypercubeSpec::construct(n, [7]) for three
// sizes, each from a seeded source, alternating 1 and 2 threads.  The
// 2-thread calls borrow one WorkerPool built during set-up.  A HostSpeed
// reference pass runs after every set-up and every call, and every
// reported timing is scaled by it (host_speed.hpp).
//
// Set-up designs the specs, builds the pool, and drives the producer
// alone through a CountingSink for every (spec, source): that pass
// warms the process and predicts the exact groups, rounds, call count,
// occupancy claims and peak frontier every certification must report.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "host_speed.hpp"
#include "layer_report.hpp"
#include "layers.hpp"
#include "shc/api/certify.hpp"
#include "shc/sim/worker_pool.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
constexpr int kCut = 7;
constexpr std::array<int, 3> kSizes = {33, 34, 35};
/// Nominal seconds per cycle, reference passes included (7.5-9 s on a
/// 4-vCPU VM); a run does round(--seconds / this) whole cycles.
constexpr double kNominalCycleS = 9.0;

struct Pair {
  shc::SparseHypercubeSpec spec;
  shc::Vertex source = 0;
  ProducerCount expect;
  /// First thread-invariant row seen for the pair; every later call at
  /// any thread count must print it again.
  std::string reference_row;
};

struct Setup {
  std::vector<Pair> pairs;
  std::unique_ptr<shc::WorkerPool> pool;
};

Setup set_up(std::uint64_t seed) {
  Setup s;
  std::mt19937_64 rng(seed);
  for (const int n : kSizes) {
    // The source's bits in the first window (0, 7] are its label, which
    // sets the group count (by up to 4x).  Label 0 is the heaviest class;
    // pinning it and seeding the other n - 7 bits gives every seed the
    // same amount of work.
    const shc::Vertex source = rng() & shc::mask_low(n) & ~shc::mask_low(kCut);
    shc::SparseHypercubeSpec spec = shc::SparseHypercubeSpec::construct(n, {kCut});
    const ProducerCount expect = count_broadcast(spec, source);
    s.pairs.push_back(Pair{std::move(spec), source, expect, {}});
  }
  s.pool = std::make_unique<shc::WorkerPool>(2);
  return s;
}

shc::CommonCheckOptions checks_for(int threads, shc::WorkerPool* pool) {
  shc::CommonCheckOptions c;
  c.threads = threads;
  if (threads > 1) c.pool = pool;
  return c;
}

shc::CertifyRequest request_for(const Pair& p, int threads, shc::WorkerPool* pool) {
  shc::CertifyRequest req;
  req.workload = shc::Workload::kBroadcastSymbolic;
  req.n = p.spec.n();
  req.cuts = {kCut};
  req.source = p.source;
  req.checks = checks_for(threads, pool);
  return req;
}

/// The row minus its timing and the one thread-count dependent counter.
std::string invariant_row(const shc::CertifyResult& r) {
  return without_field(without_field(shc::to_json_row(r), "seconds"), "reduce_tree_tasks");
}

/// Verdict plus the producer's predicted counters; everything else in
/// the row must repeat exactly for the pair.
void check_result(Outcome& out, Pair& p, int threads, const shc::CertifyResult& r,
                  const char* path) {
  const ProducerCount& e = p.expect;
  bool ok = r.ok && r.report.minimum_time &&
            static_cast<std::uint64_t>(r.report.rounds) == e.rounds &&
            r.report.total_calls == e.calls && r.checks.groups == e.groups &&
            r.checks.occupancy_claims == e.occupancy_claims &&
            r.checks.peak_frontier_subcubes == e.peak_frontier &&
            r.producer.groups_emitted == e.groups &&
            r.producer.peak_frontier_subcubes == e.peak_frontier;
  const std::string row = invariant_row(r);
  if (p.reference_row.empty()) {
    p.reference_row = row;
  } else {
    ok = ok && row == p.reference_row;
  }
  out.check(ok, std::string(path) + " n=" + std::to_string(p.spec.n()) +
                    " source=" + std::to_string(p.source) +
                    " threads=" + std::to_string(threads) + ": " + shc::to_json_row(r));
}

/// One facade call, checked; returns its wall seconds.
double timed_certify(Outcome& out, Setup& s, Pair& p, int threads, shc::CertifyResult* result) {
  const shc::CertifyRequest req = request_for(p, threads, s.pool.get());
  const std::uint64_t t0 = now_ns();
  try {
    *result = shc::certify(req);
  } catch (const std::exception& e) {
    out.check(false, std::string("certify threw: ") + e.what());
    return seconds_since(t0);
  }
  const double dt = seconds_since(t0);
  check_result(out, p, threads, *result, "certify");
  return dt;
}

Outcome run_untraced(const RunArgs& args) {
  Outcome out;
  // Every timing is host-normalised: its wall time times the factor of
  // the reference pass that follows it (host_speed.hpp).
  HostSpeed host;
  std::vector<double> setup_s;
  std::optional<Setup> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();  // the previous pool joins outside the timed window
    const std::uint64_t t0 = now_ns();
    setup.emplace(set_up(args.seed));
    const double dt = seconds_since(t0);
    setup_s.push_back(dt * host.factor());
  }

  // A fixed number of whole cycles, so every run takes the same samples
  // of each (size, threads) cell and the same tail level.
  const long cycles = std::max(1L, std::lround(args.seconds / kNominalCycleS));
  std::vector<double> latency_ms;
  double one_thread_total_s = 0.0, two_thread_total_s = 0.0, wall_total_s = 0.0;
  std::uint64_t one_thread_groups = 0;
  const std::uint64_t start = now_ns();
  for (long cycle = 0; cycle < cycles; ++cycle) {
    for (Pair& p : setup->pairs) {
      for (const int threads : {1, 2}) {
        shc::CertifyResult r;
        const double dt = timed_certify(out, *setup, p, threads, &r);
        const double scaled = dt * host.factor();
        wall_total_s += dt;
        latency_ms.push_back(scaled * 1e3);
        if (threads == 1) {
          one_thread_total_s += scaled;
          one_thread_groups += r.checks.groups;
        } else {
          two_thread_total_s += scaled;
        }
      }
    }
  }
  const double elapsed = seconds_since(start);

  out.add("setup_s", median(setup_s), "s");
  // Means, not medians: a mean over the run's fixed set of calls moves
  // less between runs than a median of them.
  const double per_thread_count = static_cast<double>(cycles * kSizes.size());
  out.add("cert_s", one_thread_total_s / per_thread_count, "s");
  out.add("cert_2t_s", two_thread_total_s / per_thread_count, "s");
  out.add("groups_per_s", static_cast<double>(one_thread_groups) / one_thread_total_s, "1/s");
  out.add("lat_p50_ms", median(latency_ms), "ms");
  out.add("lat_p99_ms", tail(latency_ms), "ms");
  out.add("sat_qps",
          static_cast<double>(latency_ms.size()) / (one_thread_total_s + two_thread_total_s),
          "1/s");
  out.add("peak_rss_mb", host.workload_peak_rss_mb(), "MB");
  std::fprintf(stderr,
               "perfbench: %zu certifications in %.1f s, %.1f s of it certifying (tail level "
               "p%.0f of %zu samples); reference pass median %.4f s, nominal %.3f s\n",
               latency_ms.size(), elapsed, wall_total_s, tail_level(latency_ms.size()) * 100.0,
               latency_ms.size(), median(host.passes_s()), HostSpeed::kNominalPassS);
  return out;
}

/// One cycle through the facade, then the same cycle through the
/// recomposed pipeline under a TraceSession, then the producer alone.
Outcome run_traced(const RunArgs& args) {
  Outcome out;
  Setup setup = set_up(args.seed);
  LayerAccum acc;

  std::vector<std::string> facade_rows;
  for (Pair& p : setup.pairs) {
    for (const int threads : {1, 2}) {
      shc::CertifyResult r;
      acc.untraced_wall_s += timed_certify(out, setup, p, threads, &r);
      facade_rows.push_back(without_field(shc::to_json_row(r), "seconds"));
    }
  }

  {
    shc::obs::TraceSession session(shc::obs::TraceOptions{});
    std::size_t i = 0;
    for (Pair& p : setup.pairs) {
      for (const int threads : {1, 2}) {
        TracedRun run =
            traced_broadcast(p.spec, p.source, checks_for(threads, setup.pool.get()));
        check_result(out, p, threads, run.result, "traced");
        out.check(without_field(shc::to_json_row(run.result), "seconds") == facade_rows[i++],
                  "traced row equals the facade row, n=" + std::to_string(p.spec.n()) +
                      " threads=" + std::to_string(threads));
        acc.add_run(run, threads);
      }
    }
    acc.trace.absorb(session.recorder());
    acc.pipeline_trace = acc.trace;
  }

  // Once per traced call (each pair ran at 1 and at 2 threads), so
  // mlbg.emit_s and mlbg.produce_self_s cover the same calls.
  for (const Pair& p : setup.pairs) {
    for (int call = 0; call < 2; ++call) {
      const std::uint64_t t0 = now_ns();
      const ProducerCount c = count_broadcast(p.spec, p.source);
      acc.emit_s += seconds_since(t0);
      out.check(c.groups == p.expect.groups, "producer alone repeats its group count");
    }
  }
  acc.report(out);
  return out;
}

}  // namespace

Outcome run_broadcast_c7(const RunArgs& args) {
  return args.trace ? run_traced(args) : run_untraced(args);
}

}  // namespace perfbench
