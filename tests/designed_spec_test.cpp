// The designed-spec headline regression: the paper's construct(63, 10)
// — Theorem 5's m* = 10 core at the n = 63 representation limit — must
// certify minimum-time through the fully symbolic pipeline with default
// budgets, reporting the exact 2^63 - 1 call count.  This is the round
// structure whose ~11 M-group rounds defeated the quadratic collision
// pair sweep (budget exhaustion at round 52); the dyadic occupancy
// ledger is what closes it, so this test is the engine's scaling gate.
// Expect minutes of single-core runtime — it certifies 9.2 quintillion
// calls.
#include <gtest/gtest.h>

#include <cstdlib>

// ASan detection across GCC (__SANITIZE_ADDRESS__) and Clang
// (__has_feature); the headline run is release-mode only — minutes at
// -O2 would be hours under the sanitizers or without optimization.
#if defined(__SANITIZE_ADDRESS__)
#define SHC_ASAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SHC_ASAN_ENABLED 1
#endif
#endif

#include "shc/mlbg/params.hpp"
#include "shc/mlbg/spec.hpp"
#include "shc/mlbg/symbolic_broadcast.hpp"

namespace shc {
namespace {

TEST(DesignedSpec, SmallDesignedCutsCertifyEverywhere) {
  // The always-on sanity tier: designed m* cuts certify through the
  // default (ledger) engine across the materializable range — the
  // memory patterns the sanitizer job needs to see, without the
  // minutes-long n = 63 magnitude run below.
  for (const int n : {16, 20, 24}) {
    const auto spec = SparseHypercubeSpec::construct(n, {theorem5_core(n)});
    ValidationOptions opt;
    opt.k = spec.k();
    const auto cert = certify_broadcast_symbolic(spec, 0, opt);
    ASSERT_TRUE(cert.report.ok) << "n=" << n << ": " << cert.report.error;
    EXPECT_TRUE(cert.report.minimum_time);
    EXPECT_EQ(cert.report.total_calls, cube_order(n) - 1);
  }
}

TEST(DesignedSpec, N63M10CertifiesMinimumTimeWithDefaultBudgets) {
#if defined(SHC_ASAN_ENABLED) || !defined(NDEBUG)
  // ~6.6 min at -O2 single-core; the sanitizers' ~45x and unoptimized
  // builds' ~5x make that hours.  The engine's memory patterns are
  // covered by the sanity tier above — this run is about magnitude.
  GTEST_SKIP() << "designed n = 63 run is optimized-release only";
#endif
  // CI's compiler matrix runs the magnitude row on one leg only (the
  // verdict is compiler-independent; the leg that records the bench
  // re-certifies this spec anyway) — the redundant leg exports
  // SHC_SKIP_MAGNITUDE_TESTS=1.
  if (const char* skip = std::getenv("SHC_SKIP_MAGNITUDE_TESTS");
      skip != nullptr && skip[0] == '1') {
    GTEST_SKIP() << "SHC_SKIP_MAGNITUDE_TESTS=1";
  }
  ASSERT_EQ(theorem5_core(63), 10) << "the paper's m* for n = 63";
  const auto spec = SparseHypercubeSpec::construct(63, {10});
  EXPECT_EQ(spec.max_degree(), 17u);

  ValidationOptions opt;
  opt.k = spec.k();
  const SymbolicCertification cert = certify_broadcast_symbolic(spec, 0, opt);

  ASSERT_TRUE(cert.report.ok) << cert.report.error;
  EXPECT_TRUE(cert.report.minimum_time);
  EXPECT_EQ(cert.report.rounds, 63);
  EXPECT_EQ(cert.report.total_calls, (std::uint64_t{1} << 63) - 1);
  EXPECT_EQ(cert.report.informed, std::uint64_t{1} << 63);
  EXPECT_EQ(cert.report.max_call_length, 2);
  // The scale that makes this a ledger-only regime: multi-million-group
  // rounds (a quadratic wall for any candidate-pair sweep) and a
  // frontier far past any explicit representation.
  EXPECT_GT(cert.checks.peak_round_groups, std::uint64_t{1} << 22);
  EXPECT_GT(cert.checks.occupancy_claims, cert.checks.peak_round_groups);
  EXPECT_GT(cert.checks.sampled_calls, 0u);
}

}  // namespace
}  // namespace shc
