#pragma once
// One query API over the four certification engines.
//
// Everything below src/api answers a narrow question ("is this
// streaming broadcast run valid?", "does symbolic gossip complete?")
// with its own entry point, options struct, and result shape.  A
// caller that wants "design + certify (n, k) and tell me what
// happened" — the quickstart, the sweep, the certification server —
// had to know which engine to pick, how to build its spec, and which
// certification struct to unpack.  CertifyRequest/CertifyResult fold
// that into one request → one result:
//
//   CertifyRequest req;
//   req.workload = Workload::kBroadcastSymbolic;
//   req.n = 48;                     // cuts empty -> design_sparse_hypercube
//   CertifyResult res = certify(req);
//   std::cout << to_json_row(res);  // the shc_sweep row schema, verbatim
//
// The facade adds no checking logic of its own: it resolves the spec,
// forwards the shared CommonCheckOptions knobs, times the run with the
// sanctioned obs clock, and repackages the engine's certification.
// Determinism contracts pass straight through — a facade result is
// bit-for-bit the direct engine's result (enforced by tests/api_test).
//
// Layering: api sits above sim/mlbg/gossip/obs.  Nothing in src/
// includes api except api itself; examples and tests consume it freely.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "shc/gossip/symbolic_gossip.hpp"
#include "shc/mlbg/broadcast.hpp"
#include "shc/mlbg/symbolic_broadcast.hpp"
#include "shc/sim/check_options.hpp"
#include "shc/sim/congestion.hpp"
#include "shc/sim/validator.hpp"

namespace shc {

/// Which engine answers the query.
enum class Workload {
  /// Concrete per-call streaming validation (n <= 32): every call is
  /// materialized round by round; peak memory is one round.
  kBroadcastStreaming,
  /// Fully symbolic subcube-group validation (n <= 63): no concrete
  /// call ever exists; time and memory polynomial in n for the paper's
  /// constructions.
  kBroadcastSymbolic,
  /// Symbolic gather-broadcast gossip on a sparse hypercube spec
  /// (n <= 63).
  kGossipSymbolic,
  /// Symbolic dimension-exchange gossip on the full Q_n (n <= 59 before
  /// the exchange count overflows 64 bits).  The facade always runs it
  /// with k = 1 on the full cube: CertifyRequest::k, cuts and source are
  /// ignored, and the server answers a `spec:` error row to a request
  /// that names a k other than 1 or any cuts.
  kExchangeGossip,
};

/// Stable wire name of a workload ("broadcast-streaming", ...).
[[nodiscard]] const char* workload_name(Workload w);

/// Inverse of workload_name; false if `name` matches no workload.
[[nodiscard]] bool workload_from_name(const std::string& name, Workload* out);

/// One certification query.  Field defaults give the quickstart
/// behavior: design a degree-k sparse hypercube and certify broadcast
/// from vertex 0.
struct CertifyRequest {
  Workload workload = Workload::kBroadcastStreaming;

  /// Hypercube dimension (vertices = 2^n).
  int n = 8;
  /// Degree budget handed to design_sparse_hypercube when `cuts` is
  /// empty.  Ignored for kExchangeGossip (always the full cube) and
  /// when `cuts` is given explicitly.
  int k = 2;
  /// Explicit cut vector: non-empty means
  /// SparseHypercubeSpec::construct(n, cuts) instead of the designed
  /// spec.  The resolved cuts are echoed in CertifyResult::cuts either
  /// way.
  std::vector<int> cuts;

  /// Broadcast source / gossip root.  Ignored for kExchangeGossip.
  Vertex source = 0;
  /// Section-5 model: require concurrent calls vertex-disjoint, not
  /// just edge-disjoint (broadcast workloads only).
  bool vertex_disjoint = false;
  /// Also materialize the schedule and attach edge-load congestion
  /// stats (broadcast workloads, n <= 24 only — materializing is
  /// exponential; larger n silently skips, mirroring shc_sweep).
  bool with_congestion = false;

  /// Shared engine knobs: threads / borrowed pool, occupancy-ledger
  /// budgets, sampling.  `checks.threads` and `checks.pool` also drive
  /// the streaming validator's workers.
  CommonCheckOptions checks;
};

/// One certification answer.  Only the fields of the workload's engine
/// are populated; the rest keep their zero defaults.  `report` is
/// filled for every workload (for the gossip workloads it mirrors the
/// GossipReport verdict so callers can test `result.report.ok`
/// uniformly).
struct CertifyResult {
  bool ok = false;
  Workload workload = Workload::kBroadcastStreaming;
  int n = 0;
  int k = 0;
  std::vector<int> cuts;          ///< resolved cut vector
  std::string model;              ///< "edge-disjoint" | "vertex-disjoint"

  ValidationReport report;        ///< broadcast verdict (mirrored for gossip)
  GossipReport gossip;            ///< gossip workloads only
  SymbolicRunStats checks;        ///< kBroadcastSymbolic only
  SymbolicProducerStats producer; ///< kBroadcastSymbolic only
  SymbolicGossipStats gossip_checks;  ///< gossip workloads only

  // kBroadcastStreaming only: arena/memory telemetry of the run.
  std::size_t peak_round_arena_bytes = 0;
  std::size_t largest_round_arena_bytes = 0;
  std::size_t whole_schedule_arena_bytes = 0;
  std::uint64_t calls = 0;

  bool has_congestion = false;
  CongestionStats congestion;     ///< valid iff has_congestion

  /// Wall seconds of the engine run (spec resolution and congestion
  /// analysis excluded), measured with obs::trace_now_ns.
  double seconds = 0.0;
};

/// Answers one query by dispatching to the matching certify_* engine.
/// Throws std::invalid_argument for threads <= 0 or a spec the
/// constructors reject (bad cuts, n out of the designable range);
/// engine-level refusals (n too large for the engine, source out of
/// range, exchange-count overflow) come back as failed reports with
/// ok = false, exactly as the engines report them.
[[nodiscard]] CertifyResult certify(const CertifyRequest& req);

/// Serializes a result as one shc_sweep-schema JSON row (no trailing
/// newline): streaming rows carry the arena fields and optional
/// congestion block, symbolic rows the group stats, gossip rows the
/// knowledge-class stats.  kExchangeGossip uses the gossip shape with
/// engine tag "exchange-gossip".  Existing row consumers parse facade
/// and server output unchanged.
[[nodiscard]] std::string to_json_row(const CertifyResult& res);

/// `s` escaped for the inside of a JSON string: `"` and `\` take a
/// backslash, newline, carriage return and tab their short escapes, and
/// every other byte below 0x20 a \u00XX escape, so a row stays one line
/// whatever bytes a client sent.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Admission-control cost model: predicted peak concurrent group count
/// of the query (streaming, and a broadcast request whose congestion
/// stats materialize the schedule: 2^n - 1 concrete calls; symbolic:
/// groups grow with n and the level structure; exchange gossip: n).  Not a
/// certificate of anything — a deterministic coarse ranking so the
/// server can bound in-flight heavy queries.
[[nodiscard]] std::uint64_t predicted_group_cost(const CertifyRequest& req);

}  // namespace shc
