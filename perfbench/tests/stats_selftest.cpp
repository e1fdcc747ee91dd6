// Self-test of the benchmark's statistics helpers (src/stats.hpp).
// Exits 0 when every check holds, 1 otherwise.  perfbench/run.py runs
// it after every build and before every workload.

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "stats_selftest: FAILED %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_quantiles() {
  using perfbench::quantile;
  expect(std::isnan(quantile({}, 0.5)), "empty sample has no quantile");
  expect(near(quantile({7.0}, 0.99), 7.0), "single sample is every quantile");
  expect(near(perfbench::median({3.0, 1.0, 2.0}), 2.0), "odd median");
  expect(near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median interpolates");
  expect(near(quantile(ramp(101), 0.99), 100.0), "p99 of 1..101 is 100");
  expect(near(quantile(ramp(11), 0.25), 3.5), "p25 of 1..11 is 3.5");
}

void test_tail_rule() {
  using perfbench::tail_level;
  // At least ten samples beyond the reported percentile.
  expect(near(tail_level(1000), 0.99), "1000 samples allow p99");
  expect(near(tail_level(5000), 0.99), "the tail is capped at p99");
  expect(near(tail_level(200), 0.95), "200 samples allow only p95");
  expect(near(tail_level(100), 0.90), "100 samples allow only p90");
  expect(near(tail_level(12), 0.5), "below 20 samples the tail is the median");
  expect(near(tail_level(0), 0.5), "no samples: median level");
  for (std::size_t n : {20u, 57u, 100u, 333u, 999u, 1000u, 4321u}) {
    const double q = tail_level(n);
    const double beyond = (1.0 - q) * static_cast<double>(n);
    expect(beyond >= 10.0 - 1e-9 || q == 0.5, "ten samples lie beyond the tail level");
  }
  // On 1..200 the rule reports p95, i.e. 190.05, not the p99 of 198.
  expect(near(perfbench::tail(ramp(200)), 190.05), "tail of 1..200 is its p95");
}

void test_open_loop_timing() {
  using perfbench::RequestTiming;
  // Due at 1 ms, sent 0.2 ms late, picked up 0.3 ms later, served in 50 us.
  const RequestTiming t{1'000'000, 1'200'000, 1'500'000, 1'550'000};
  expect(near(perfbench::lateness_ms(t), 0.2), "generator lateness is released - due");
  expect(near(perfbench::queue_wait_ms(t), 0.3), "queue wait is started - released");
  expect(near(perfbench::service_us(t), 50.0), "service time is done - started");
  expect(near(perfbench::latency_ms(t, true), 0.55), "latency runs from the due time");
  expect(perfbench::latency_ms(t, false) == std::numeric_limits<double>::infinity(),
         "a refused or wrong answer is over every limit");

  // A 100 ms stall on the first of ten requests due 10 ms apart, with a
  // generator that cannot send while the server is stalled.  Timing from
  // the due time charges the stall to every request due during it;
  // timing from the send hides it, and only the generator's lateness
  // shows where it went.
  std::vector<double> from_due, from_send, late;
  std::uint64_t free_at = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    RequestTiming r;
    r.due_ns = i * 10'000'000;
    r.released_ns = std::max(r.due_ns, free_at);
    r.started_ns = r.released_ns;
    r.done_ns = r.started_ns + (i == 0 ? 100'000'000 : 1'000'000);
    free_at = r.done_ns;
    from_due.push_back(perfbench::latency_ms(r, true));
    from_send.push_back(static_cast<double>(r.done_ns - r.released_ns) * 1e-6);
    late.push_back(perfbench::lateness_ms(r));
  }
  expect(near(from_due[1], 91.0), "second request waits out the stall");
  expect(near(perfbench::median(from_due), 59.5), "the stall moves the median");
  expect(near(perfbench::median(from_send), 1.0), "timing from the send hides it");
  expect(near(late[1], 90.0), "the generator reports how late it sent");
  expect(near(perfbench::quantile(late, 1.0), 90.0), "lateness peaks right after the stall");
}

}  // namespace

int main() {
  test_quantiles();
  test_tail_rule();
  test_open_loop_timing();
  if (failures == 0) std::fprintf(stderr, "stats_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
