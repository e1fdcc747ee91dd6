#pragma once
// Long-lived certification service engine.
//
// ServeEngine answers newline-delimited JSON certification queries —
// the transport (stdin/stdout loop, Unix socket) lives in
// examples/shc_serve.cpp; everything a test or bench needs is here,
// in-process.  One request line:
//
//   {"id":7,"workload":"broadcast-symbolic","n":24,"k":2}
//
// maps to a CertifyRequest, runs through shc::certify, and answers
// with the shc_sweep row schema plus a service envelope
// (`"id":7,"cache_hit":false` appended before the closing brace), so
// existing sweep-row consumers parse responses unchanged.
//
// Service semantics:
//   * Malformed input never kills the server: every failure — bad
//     JSON, unknown workload, a spec the constructors reject — comes
//     back as a structured `{"ok":false,"error":...}` row.  A line
//     longer than ServeEngine::kMaxLineBytes is refused before parsing,
//     and the socket transport stops buffering it at that length.
//   * Certificate cache: completed rows are memoized keyed by
//     (workload, n, resolved cut vector, source, model[, congestion]).
//     Thread counts and budgets are deliberately NOT in the key — the
//     engines' determinism contract makes the report identical for
//     every thread count.  A hit returns the stored row bytes, so
//     cache-hit responses are bit-for-bit the cold run's row (enforced
//     by tests/serve_test).  Lookups are single-flight: concurrent
//     requests for the same cold key elect one leader to certify and
//     the rest wait for its stored bytes, so exactly one cold run per
//     distinct key ever happens and every response for a key carries
//     identical row bytes (the `seconds` field included).
//   * Admission control: queries whose predicted_group_cost reaches
//     ServeOptions::heavy_groups are "heavy"; at most heavy_slots run
//     concurrently and excess heavy queries get an immediate
//     `"refused":true` row (not cached) instead of starving the small
//     ones.  One designed-47 certification runs to completion while
//     thousands of cached small-n queries keep streaming.
//   * Pool reuse: the engine owns one WorkerPool (threads > 1) and
//     lends it to one in-flight query at a time via
//     CommonCheckOptions::pool; concurrent queries that miss the pool
//     run inline rather than spinning up threads per query.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "shc/api/certify.hpp"
#include "shc/sim/worker_pool.hpp"

namespace shc {

/// Service knobs (transport-independent).
struct ServeOptions {
  /// Workers of the shared WorkerPool lent to queries (1 = every query
  /// runs inline; the pool is never constructed).  Above
  /// kMaxCheckThreads the engine's constructor throws
  /// std::invalid_argument.
  int threads = 1;
  /// Predicted group count at which a query counts as heavy.  The
  /// default puts the designed n = 47 symbolic certification (and
  /// anything bigger) over the line and the small-n sweep mix under it.
  std::uint64_t heavy_groups = std::uint64_t{1} << 13;
  /// Concurrently admitted heavy queries; excess heavy queries are
  /// refused with a structured row.  0 refuses all heavy queries.
  int heavy_slots = 1;
  /// Certificate memoization (disable for cache-parity testing).
  bool enable_cache = true;
};

/// Monotonic service counters (snapshot; exact under concurrency).
struct ServeStats {
  std::uint64_t queries = 0;      ///< request lines handled
  std::uint64_t ok = 0;           ///< rows answered with "ok":true
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0; ///< certifications actually run
  std::uint64_t refused = 0;      ///< admission-control refusals
  std::uint64_t errors = 0;       ///< parse/validation error rows
};

/// In-process certification server.  handle_line is thread-safe: the
/// transport may pump requests from any number of client threads.
class ServeEngine {
 public:
  explicit ServeEngine(ServeOptions opt = {});
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Longest request line answered by parsing.  The longest legal
  /// request is well under 1 KiB; anything past this is answered with
  /// `parse: line longer than 65536 bytes`, and transports may discard
  /// the rest of such a line instead of buffering it.
  static constexpr std::size_t kMaxLineBytes = 65536;

  /// Answers one request line with one response row (no trailing
  /// newline).  Never throws on bad input — errors become rows.
  [[nodiscard]] std::string handle_line(const std::string& line);

  [[nodiscard]] ServeStats stats() const;
  [[nodiscard]] const ServeOptions& options() const { return opt_; }

 private:
  struct Parsed;  // request fields + envelope id (serve.cpp)

  /// Single-flight cache slot: the leader that inserted it certifies
  /// and publishes `row`; concurrent requesters wait on `cv`.  If the
  /// leader fails (refusal, error), it wakes waiters with `row` empty
  /// after unlinking the slot, and they re-compete for the key.
  struct CacheEntry {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    std::string row;  ///< empty after ready => leader did not produce a row
  };

  [[nodiscard]] std::string cache_key(const CertifyRequest& req,
                                      const std::vector<int>& resolved_cuts) const;

  ServeOptions opt_;
  std::unique_ptr<WorkerPool> pool_;  ///< shared across queries, opt_.threads > 1
  std::mutex pool_mu_;                ///< at most one query borrows the pool

  std::mutex cache_mu_;
  std::unordered_map<std::string, std::shared_ptr<CacheEntry>> cache_;

  std::mutex admit_mu_;
  int heavy_in_flight_ = 0;

  mutable std::atomic<std::uint64_t> queries_{0};
  mutable std::atomic<std::uint64_t> ok_{0};
  mutable std::atomic<std::uint64_t> cache_hits_{0};
  mutable std::atomic<std::uint64_t> cache_misses_{0};
  mutable std::atomic<std::uint64_t> refused_{0};
  mutable std::atomic<std::uint64_t> errors_{0};
};

}  // namespace shc
