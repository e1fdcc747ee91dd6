// Flight-recorder contract suite.
//
// Contract under test (the hard observability contract of src/obs/):
// disabled call sites are no-ops that never allocate; the merged event
// order is deterministic run over run at every thread count (the
// (track, seq) merge key is assigned in engine-thread program order —
// timestamps exist only in the trace files); validation reports are
// bit-for-bit identical with tracing on or off, on clean and on failing
// schedules, for broadcast and gossip; and the two sinks emit
// structurally valid Chrome trace_event JSON / per-round JSONL.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "shc/mlbg/broadcast.hpp"
#include "shc/mlbg/params.hpp"
#include "shc/mlbg/spec.hpp"
#include "shc/mlbg/symbolic_broadcast.hpp"
#include "shc/gossip/symbolic_gossip.hpp"
#include "shc/obs/recorder.hpp"
#include "shc/sim/symbolic_validator.hpp"

// ---- global allocation counter -----------------------------------------
//
// Same pattern as bench_schedule's zero-allocation proof: the global
// operator new is replaced with a counting hook, so "disabled tracing
// allocates nothing" is a measured fact, not a reading of the code.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms too (std::stable_sort's temporary buffer uses one):
// left to the runtime, they would hand the replaced delete a block it
// did not allocate with malloc.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_alloc_count;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace shc {
namespace {

// ---- disabled mode ------------------------------------------------------

TEST(DisabledMode, MacrosAreNoOpsWithZeroAllocations) {
  ASSERT_EQ(obs::TraceRecorder::active(), nullptr)
      << "another test leaked an active recorder";
  const std::uint64_t before = g_alloc_count.load();
  for (int i = 0; i < 10000; ++i) {
    SHC_TRACE_SCOPE("disabled_scope");
    SHC_TRACE_COUNTER("disabled_counter", i);
    SHC_TRACE_INSTANT("disabled_instant");
    SHC_TRACE_ROUND(i);
  }
  EXPECT_EQ(g_alloc_count.load() - before, 0u)
      << "disabled trace macros must not allocate";
}

TEST(DisabledMode, OnlyOneRecorderCanBeActive) {
  obs::TraceSession session({});
  EXPECT_EQ(obs::TraceRecorder::active(), &session.recorder());
  EXPECT_THROW(obs::TraceSession second({}), std::runtime_error);
  // The failed install must not have clobbered the active recorder.
  EXPECT_EQ(obs::TraceRecorder::active(), &session.recorder());
}

// ---- deterministic merge ------------------------------------------------

/// The deterministic part of an event: everything except the
/// timestamp/duration/measured-value payload.  Counter *names* are kept
/// (which gauges fire, and in what order, is part of the contract);
/// their values can be measurements (rss_hwm_kb, pool_busy_ns).
using EventSig = std::tuple<std::uint32_t, std::uint64_t, int, std::string>;

std::vector<EventSig> traced_run_signature(int n, int threads) {
  obs::TraceSession session({});  // no sinks: events only
  ValidationOptions opt;
  const auto spec = design_sparse_hypercube(n, 2);
  opt.k = spec.k();
  SymbolicCheckOptions sopt;
  sopt.threads = threads;
  const auto cert = certify_broadcast_symbolic(spec, 0, opt, sopt);
  EXPECT_TRUE(cert.report.ok) << cert.report.error;
  std::vector<EventSig> sig;
  for (const obs::TraceEvent& e : session.recorder().merged_events()) {
    sig.emplace_back(e.track, e.seq, static_cast<int>(e.kind),
                     std::string(e.name));
  }
  return sig;
}

TEST(DeterministicMerge, EventOrderIsReproducibleAtEveryThreadCount) {
  // At two or more threads each round's check job runs on a pooled
  // worker beside the engine thread's ledger build and frontier insert;
  // their events still merge in one order.
  for (const int threads : {1, 2, 4}) {
    const auto first = traced_run_signature(16, threads);
    const auto second = traced_run_signature(16, threads);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second)
        << "merged event order drifted between identical runs at threads="
        << threads;
  }
}

TEST(DeterministicMerge, DoubledReceiverCountsAreTheSameAtEveryThreadCount) {
  // frontier_doubled counts, per round, the receivers the engine
  // thread's group-aware insert merged straight into their caller's
  // entry.  The insert runs in group order at every thread count, so
  // the per-round values are a function of the schedule alone.
  const auto doubled = [](int threads) {
    obs::TraceSession session({});
    const auto spec = design_sparse_hypercube(16, 3);
    ValidationOptions opt;
    opt.k = spec.k();
    SymbolicCheckOptions sopt;
    sopt.threads = threads;
    const auto cert = certify_broadcast_symbolic(spec, 0, opt, sopt);
    EXPECT_TRUE(cert.report.ok) << cert.report.error;
    std::vector<std::uint64_t> values;
    for (const obs::TraceEvent& e : session.recorder().merged_events()) {
      if (std::string_view(e.name) == "frontier_doubled") values.push_back(e.value);
    }
    EXPECT_EQ(values.size(), static_cast<std::size_t>(cert.report.rounds));
    return values;
  };
  const std::vector<std::uint64_t> one = doubled(1);
  EXPECT_GT(std::accumulate(one.begin(), one.end(), std::uint64_t{0}), 0u);
  for (const int threads : {2, 4}) EXPECT_EQ(doubled(threads), one) << "threads=" << threads;
}

TEST(DeterministicMerge, RoundMarksMatchTheReportedRounds) {
  for (const int threads : {1, 2}) {
    obs::TraceSession session({});
    ValidationOptions opt;
    const auto spec = design_sparse_hypercube(14, 2);
    opt.k = spec.k();
    SymbolicCheckOptions sopt;
    sopt.threads = threads;
    const auto cert = certify_broadcast_symbolic(spec, 0, opt, sopt);
    ASSERT_TRUE(cert.report.ok) << cert.report.error;
    int rounds = 0;
    std::uint64_t prev_seq = 0;
    bool have_prev = false;
    for (const obs::TraceEvent& e : session.recorder().merged_events()) {
      ASSERT_EQ(e.track, obs::kMainTrack)
          << "the engines record on the main track only";
      if (have_prev) {
        EXPECT_GT(e.seq, prev_seq)
            << "merge order must be strictly by seq (threads=" << threads << ")";
      }
      prev_seq = e.seq;
      have_prev = true;
      if (e.kind == obs::EventKind::kRound) ++rounds;
    }
    EXPECT_EQ(rounds, cert.report.rounds) << "threads=" << threads;
  }
}

TEST(DeterministicMerge, ForkedJobsKeepTheSerialPhaseOrder) {
  // The jobs of a round draw their trace numbers from blocks reserved
  // on the engine thread, so the phases of every round merge in the
  // serial order whichever thread ran them: the same phase sequence at
  // one thread and at two, where the check job runs beside the insert.
  const auto phases = [](int threads) {
    obs::TraceSession session({});
    ValidationOptions opt;
    const auto spec = design_sparse_hypercube(14, 2);
    opt.k = spec.k();
    SymbolicCheckOptions sopt;
    sopt.threads = threads;
    const auto cert = certify_broadcast_symbolic(spec, 0, opt, sopt);
    EXPECT_TRUE(cert.report.ok) << cert.report.error;
    std::vector<std::string> names;
    for (const obs::TraceEvent& e : session.recorder().merged_events()) {
      const std::string name = e.name;
      // The pool's own probes exist only when a pool runs.
      if (name != "pool_gen" && name != "pool_busy_ns") names.push_back(name);
    }
    return names;
  };
  const std::vector<std::string> serial = phases(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(phases(2), serial);
}

TEST(SeqLease, ALeaseSpendsItsBlockThenFallsBackToTheSharedCounter) {
  obs::TraceSession session({});
  obs::TraceRecorder& rec = session.recorder();
  const std::uint64_t first = rec.reserve_seqs(2);
  const std::uint64_t after = rec.next_seq();
  EXPECT_EQ(after, first + 2) << "a reserved block is skipped by later draws";
  {
    const obs::SeqLease lease(&rec, first, 2);
    EXPECT_EQ(rec.next_seq(), first);
    EXPECT_EQ(rec.next_seq(), first + 1);
    EXPECT_EQ(rec.next_seq(), after + 1) << "an exhausted lease falls back";
  }
  EXPECT_EQ(rec.next_seq(), after + 2) << "the lease ends with its scope";
  {
    const obs::SeqLease inert(nullptr, 1000, 4);
    EXPECT_EQ(rec.next_seq(), after + 3) << "a null-recorder lease is inert";
  }
}

// ---- report parity ------------------------------------------------------

TEST(ReportParity, CleanBroadcastIsBitForBitIdenticalTracingOnOff) {
  const auto spec = design_sparse_hypercube(12, 2);
  ValidationOptions opt;
  opt.k = spec.k();
  const auto plain = certify_broadcast_symbolic(spec, 0, opt);
  SymbolicCertification traced;
  {
    obs::TraceSession session({});
    traced = certify_broadcast_symbolic(spec, 0, opt);
  }
  EXPECT_TRUE(plain.report == traced.report);
  EXPECT_EQ(plain.checks.groups, traced.checks.groups);
  EXPECT_EQ(plain.checks.peak_frontier_subcubes,
            traced.checks.peak_frontier_subcubes);
  EXPECT_EQ(plain.checks.occupancy_claims, traced.checks.occupancy_claims);
  EXPECT_EQ(plain.checks.rounds_checked, traced.checks.rounds_checked);
}

TEST(ReportParity, FailingScheduleIsBitForBitIdenticalTracingOnOff) {
  const auto spec = design_sparse_hypercube(10, 2);
  const SpecView view(spec);
  ValidationOptions opt;
  opt.k = spec.k();
  auto truncated = make_symbolic_broadcast_schedule(spec, 0);
  truncated.rounds.pop_back();
  const auto plain = validate_broadcast_symbolic(view, truncated, opt);
  ValidationReport traced;
  {
    obs::TraceSession session({});
    traced = validate_broadcast_symbolic(view, truncated, opt);
  }
  ASSERT_FALSE(plain.ok);
  EXPECT_TRUE(plain == traced)
      << "traced failure: \"" << traced.error << "\" vs \"" << plain.error
      << '"';
}

TEST(ReportParity, GossipIsBitForBitIdenticalTracingOnOff) {
  const auto spec = design_sparse_hypercube(10, 2);
  const auto plain = certify_gossip_symbolic(spec, 0);
  SymbolicGossipCertification traced;
  {
    obs::TraceSession session({});
    traced = certify_gossip_symbolic(spec, 0);
  }
  EXPECT_TRUE(plain.report == traced.report);
  EXPECT_EQ(plain.checks.groups, traced.checks.groups);
  EXPECT_EQ(plain.checks.rounds_checked, traced.checks.rounds_checked);
  EXPECT_EQ(plain.checks.classes.peak_classes,
            traced.checks.classes.peak_classes);
  EXPECT_EQ(plain.checks.classes.union_cache_hits,
            traced.checks.classes.union_cache_hits);
  EXPECT_EQ(plain.checks.classes.union_cache_misses,
            traced.checks.classes.union_cache_misses);
}

TEST(ReportParity, ThreadCountsAgreeWhileTraced) {
  const auto spec = design_sparse_hypercube(16, 2);
  ValidationOptions opt;
  opt.k = spec.k();
  SymbolicCertification reports[2];
  int i = 0;
  for (const int threads : {1, 4}) {
    obs::TraceSession session({});
    SymbolicCheckOptions sopt;
    sopt.threads = threads;
    reports[i++] = certify_broadcast_symbolic(spec, 0, opt, sopt);
  }
  EXPECT_TRUE(reports[0].report == reports[1].report);
  EXPECT_EQ(reports[0].checks.groups, reports[1].checks.groups);
  EXPECT_EQ(reports[0].checks.rounds_checked, reports[1].checks.rounds_checked);
}

// ---- sinks --------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::size_t count_occurrences(const std::string& hay, const std::string& pin) {
  std::size_t count = 0;
  for (std::size_t at = hay.find(pin); at != std::string::npos;
       at = hay.find(pin, at + pin.size())) {
    ++count;
  }
  return count;
}

TEST(Sinks, ChromeTraceAndRoundJsonlAreStructurallyValid) {
  const std::string chrome = "trace_recorder_test.tmp.trace.json";
  const std::string jsonl = "trace_recorder_test.tmp.rounds.jsonl";
  const auto spec = design_sparse_hypercube(12, 2);
  ValidationOptions opt;
  opt.k = spec.k();
  int rounds = 0;
  {
    obs::TraceSession session({chrome, jsonl});
    const auto cert = certify_broadcast_symbolic(spec, 0, opt);
    ASSERT_TRUE(cert.report.ok) << cert.report.error;
    rounds = cert.report.rounds;
  }  // session destructor flushes both sinks

  const std::string trace = slurp(chrome);
  EXPECT_EQ(trace.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(trace.substr(trace.size() - 3), "]}\n");
  EXPECT_GT(count_occurrences(trace, "\"ph\":\"X\""), 0u) << "no phase scopes";
  EXPECT_GT(count_occurrences(trace, "\"ph\":\"C\""), 0u) << "no counters";
  EXPECT_EQ(count_occurrences(trace, "\"args\":{\"round\":"),
            static_cast<std::size_t>(rounds));

  const std::string rows = slurp(jsonl);
  std::istringstream lines(rows);
  std::string line;
  int row_count = 0;
  bool saw_tail = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(line.rfind("{\"round\":", 0), 0u) << line;
    EXPECT_NE(line.find("\"wall_ms\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"counters\":{"), std::string::npos) << line;
    EXPECT_NE(line.find("\"phases_ms\":{"), std::string::npos) << line;
    if (line.rfind("{\"round\":-1,", 0) == 0) saw_tail = true;
    ++row_count;
  }
  // One row per round mark plus the endgame tail window.
  EXPECT_EQ(row_count, rounds + 1);
  EXPECT_TRUE(saw_tail) << "the endgame after the last mark needs a -1 row";
  EXPECT_NE(rows.find("\"frontier_subcubes\":"), std::string::npos);
  EXPECT_NE(rows.find("\"frontier_doubled\":"), std::string::npos);
  EXPECT_NE(rows.find("\"rss_hwm_kb\":"), std::string::npos);

  std::remove(chrome.c_str());
  std::remove(jsonl.c_str());
}

TEST(Sinks, TraceOptionsFromBaseFollowsTheSuffixConvention) {
  const obs::TraceOptions chrome = obs::trace_options_from_base("x.json");
  EXPECT_EQ(chrome.chrome_path, "x.json");
  EXPECT_TRUE(chrome.jsonl_path.empty());

  const obs::TraceOptions jsonl = obs::trace_options_from_base("x.jsonl");
  EXPECT_TRUE(jsonl.chrome_path.empty());
  EXPECT_EQ(jsonl.jsonl_path, "x.jsonl");

  const obs::TraceOptions both = obs::trace_options_from_base("runs/x");
  EXPECT_EQ(both.chrome_path, "runs/x.trace.json");
  EXPECT_EQ(both.jsonl_path, "runs/x.rounds.jsonl");
}

TEST(Sinks, FromEnvHonorsShcTrace) {
  unsetenv("SHC_TRACE");
  EXPECT_EQ(obs::TraceSession::from_env(), nullptr);

  setenv("SHC_TRACE", "trace_recorder_test.tmp.env", 1);
  {
    auto session = obs::TraceSession::from_env();
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(obs::TraceRecorder::active(), &session->recorder());
    SHC_TRACE_ROUND(1);
  }
  unsetenv("SHC_TRACE");
  EXPECT_EQ(obs::TraceRecorder::active(), nullptr);
  // The env-configured session wrote both default sinks.
  std::ifstream chrome("trace_recorder_test.tmp.env.trace.json");
  EXPECT_TRUE(chrome.is_open());
  std::ifstream jsonl("trace_recorder_test.tmp.env.rounds.jsonl");
  EXPECT_TRUE(jsonl.is_open());
  std::remove("trace_recorder_test.tmp.env.trace.json");
  std::remove("trace_recorder_test.tmp.env.rounds.jsonl");
}

TEST(Sinks, UnwritablePathFailsTheWriteNotTheRun) {
  obs::TraceSession session({});
  SHC_TRACE_ROUND(1);
  EXPECT_FALSE(session.recorder().write_chrome_trace(
      "/nonexistent-dir/trace.json"));
  EXPECT_FALSE(session.recorder().write_round_jsonl(
      "/nonexistent-dir/rounds.jsonl"));
}

}  // namespace
}  // namespace shc
