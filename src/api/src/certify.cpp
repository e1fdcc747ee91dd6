// Facade dispatch: CertifyRequest -> engine -> CertifyResult -> JSON row.
//
// The row serialization reproduces examples/shc_sweep.cpp's historical
// schemas byte-for-byte (field order, spellings, boolean literals, the
// default ostream double formatting of "seconds") — existing consumers
// of sweep output parse facade and server rows unchanged, and the
// sweep itself is now a thin client of to_json_row.

#include "shc/api/certify.hpp"

#include <sstream>
#include <stdexcept>

#include "shc/mlbg/params.hpp"
#include "shc/obs/recorder.hpp"

namespace shc {

namespace {

void append_cuts(std::ostringstream& os, const std::vector<int>& cuts) {
  os << "\"cuts\":[";
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    os << (i ? "," : "") << cuts[i];
  }
  os << ']';
}

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  if (a != 0 && b > ~std::uint64_t{0} / a) return ~std::uint64_t{0};
  return a * b;
}

/// Resolves the request's spec: explicit cuts win, otherwise the
/// degree-k design.  kExchangeGossip never calls this (no spec).
SparseHypercubeSpec resolve_spec(const CertifyRequest& req) {
  if (!req.cuts.empty()) {
    return SparseHypercubeSpec::construct(req.n, req.cuts);
  }
  return design_sparse_hypercube(req.n, req.k);
}

/// True when the request's congestion stats are computed: they need the
/// materialized concrete schedule, exponential in n, so only the small
/// broadcast sizes opt in (mirrors shc_sweep's n <= 14 grid policy,
/// with headroom).
bool materializes_congestion(const CertifyRequest& req) {
  return req.with_congestion && req.n <= 24 &&
         (req.workload == Workload::kBroadcastStreaming ||
          req.workload == Workload::kBroadcastSymbolic);
}

/// Fills the gossip fields and mirrors the verdict into `report`, so
/// result.report.ok works uniformly across workloads.
void take_gossip(CertifyResult& res, const SymbolicGossipCertification& cert) {
  res.gossip = cert.report;
  res.gossip_checks = cert.checks;
  res.ok = cert.report.ok;
  res.report.ok = cert.report.ok;
  res.report.error = cert.report.error;
  res.report.rounds = cert.report.rounds;
  res.report.max_call_length = cert.report.max_call_length;
  res.report.total_calls = cert.report.total_exchanges;
  res.report.minimum_time = cert.report.minimum_time;
}

/// The rows' tail: the error of a failed run, then the broadcast rows'
/// optional congestion fields.
void append_tail(std::ostringstream& os, bool ok, const std::string& error,
                 const CertifyResult& res) {
  if (!ok) os << ",\"error\":\"" << json_escape(error) << '"';
  if (!res.has_congestion) return;
  os << ",\"distinct_edges_used\":" << res.congestion.distinct_edges_used
     << ",\"total_edge_hops\":" << res.congestion.total_edge_hops
     << ",\"max_edge_load_total\":" << res.congestion.max_edge_load_total
     << ",\"required_edge_capacity\":" << res.congestion.max_edge_load_per_round
     << ",\"mean_edge_load\":" << res.congestion.mean_edge_load;
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kBroadcastStreaming: return "broadcast-streaming";
    case Workload::kBroadcastSymbolic: return "broadcast-symbolic";
    case Workload::kGossipSymbolic: return "gossip-symbolic";
    case Workload::kExchangeGossip: return "exchange-gossip";
  }
  return "unknown";
}

bool workload_from_name(const std::string& name, Workload* out) {
  if (name == "broadcast-streaming") *out = Workload::kBroadcastStreaming;
  else if (name == "broadcast-symbolic") *out = Workload::kBroadcastSymbolic;
  else if (name == "gossip-symbolic") *out = Workload::kGossipSymbolic;
  else if (name == "exchange-gossip") *out = Workload::kExchangeGossip;
  else return false;
  return true;
}

CertifyResult certify(const CertifyRequest& req) {
  require_check_threads("shc::certify: checks.threads", req.checks.threads);

  CertifyResult res;
  res.workload = req.workload;
  res.n = req.n;
  res.model = req.vertex_disjoint ? "vertex-disjoint" : "edge-disjoint";

  if (req.workload == Workload::kExchangeGossip) {
    const std::uint64_t t0 = obs::trace_now_ns();
    const SymbolicGossipCertification cert =
        certify_exchange_gossip_symbolic(req.n, req.checks);
    res.seconds = static_cast<double>(obs::trace_now_ns() - t0) * 1e-9;
    res.k = 1;
    take_gossip(res, cert);
    return res;
  }

  const SparseHypercubeSpec spec = resolve_spec(req);
  res.k = spec.k();
  res.cuts = spec.cuts();

  ValidationOptions opt;
  opt.k = spec.k();
  opt.require_vertex_disjoint = req.vertex_disjoint;

  switch (req.workload) {
    case Workload::kBroadcastStreaming: {
      const std::uint64_t t0 = obs::trace_now_ns();
      const StreamingCertification cert = certify_broadcast_streaming(
          spec, req.source, opt, req.checks.threads, req.checks.pool);
      res.seconds = static_cast<double>(obs::trace_now_ns() - t0) * 1e-9;
      res.report = cert.report;
      res.peak_round_arena_bytes = cert.peak_round_arena_bytes;
      res.largest_round_arena_bytes = cert.largest_round_arena_bytes;
      res.whole_schedule_arena_bytes = cert.whole_schedule_arena_bytes;
      res.calls = cert.calls;
      res.ok = cert.report.ok;
      break;
    }
    case Workload::kBroadcastSymbolic: {
      SymbolicCheckOptions sopt;
      static_cast<CommonCheckOptions&>(sopt) = req.checks;
      const std::uint64_t t0 = obs::trace_now_ns();
      const SymbolicCertification cert =
          certify_broadcast_symbolic(spec, req.source, opt, sopt);
      res.seconds = static_cast<double>(obs::trace_now_ns() - t0) * 1e-9;
      res.report = cert.report;
      res.checks = cert.checks;
      res.producer = cert.producer;
      res.ok = cert.report.ok;
      break;
    }
    case Workload::kGossipSymbolic: {
      const std::uint64_t t0 = obs::trace_now_ns();
      const SymbolicGossipCertification cert =
          certify_gossip_symbolic(spec, req.source, req.checks);
      res.seconds = static_cast<double>(obs::trace_now_ns() - t0) * 1e-9;
      take_gossip(res, cert);
      break;
    }
    case Workload::kExchangeGossip:
      break;  // handled above
  }

  if (res.ok && materializes_congestion(req)) {
    const FlatSchedule schedule = make_broadcast_schedule(spec, req.source);
    res.congestion = analyze_congestion(schedule, req.checks.threads, req.checks.pool);
    res.has_congestion = true;
  }
  return res;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_json_row(const CertifyResult& res) {
  std::ostringstream os;
  switch (res.workload) {
    case Workload::kBroadcastStreaming: {
      os << "{\"n\":" << res.n << ",\"k\":" << res.k << ',';
      append_cuts(os, res.cuts);
      os << ",\"model\":\"" << res.model << '"'
         << ",\"ok\":" << (res.report.ok ? "true" : "false")
         << ",\"minimum_time\":" << (res.report.minimum_time ? "true" : "false")
         << ",\"rounds\":" << res.report.rounds
         << ",\"calls\":" << res.calls
         << ",\"max_call_length\":" << res.report.max_call_length
         << ",\"peak_round_arena_bytes\":" << res.peak_round_arena_bytes
         << ",\"largest_round_arena_bytes\":" << res.largest_round_arena_bytes
         << ",\"whole_schedule_arena_bytes\":" << res.whole_schedule_arena_bytes
         << ",\"seconds\":" << res.seconds;
      append_tail(os, res.report.ok, res.report.error, res);
      os << '}';
      break;
    }
    case Workload::kBroadcastSymbolic: {
      os << "{\"engine\":\"symbolic\",\"n\":" << res.n << ",\"k\":" << res.k
         << ',';
      append_cuts(os, res.cuts);
      os << ",\"ok\":" << (res.report.ok ? "true" : "false")
         << ",\"minimum_time\":" << (res.report.minimum_time ? "true" : "false")
         << ",\"rounds\":" << res.report.rounds
         << ",\"calls\":" << res.report.total_calls
         << ",\"max_call_length\":" << res.report.max_call_length
         << ",\"groups\":" << res.checks.groups
         << ",\"peak_frontier_subcubes\":" << res.checks.peak_frontier_subcubes
         << ",\"peak_round_groups\":" << res.checks.peak_round_groups
         << ",\"occupancy_claims\":" << res.checks.occupancy_claims
         << ",\"sampled_calls\":" << res.checks.sampled_calls
         << ",\"rounds_checked\":" << res.checks.rounds_checked
         << ",\"union_cache_hits\":" << res.checks.union_cache_hits
         << ",\"union_cache_misses\":" << res.checks.union_cache_misses
         << ",\"seconds\":" << res.seconds;
      append_tail(os, res.report.ok, res.report.error, res);
      os << '}';
      break;
    }
    case Workload::kGossipSymbolic:
    case Workload::kExchangeGossip: {
      os << "{\"engine\":\""
         << (res.workload == Workload::kGossipSymbolic ? "symbolic-gossip"
                                                       : "exchange-gossip")
         << "\",\"n\":" << res.n << ",\"k\":" << res.k << ',';
      append_cuts(os, res.cuts);
      os << ",\"ok\":" << (res.gossip.ok ? "true" : "false")
         << ",\"complete\":" << (res.gossip.complete ? "true" : "false")
         << ",\"rounds\":" << res.gossip.rounds
         << ",\"exchanges\":" << res.gossip.total_exchanges
         << ",\"max_call_length\":" << res.gossip.max_call_length
         << ",\"groups\":" << res.gossip_checks.groups
         << ",\"peak_classes\":" << res.gossip_checks.classes.peak_classes
         << ",\"peak_knowledge_subcubes\":"
         << res.gossip_checks.classes.peak_knowledge_subcubes
         << ",\"unions\":" << res.gossip_checks.classes.unions_computed
         << ",\"occupancy_claims\":" << res.gossip_checks.occupancy_claims
         << ",\"sampled_calls\":" << res.gossip_checks.sampled_calls
         << ",\"rounds_checked\":" << res.gossip_checks.rounds_checked
         << ",\"union_cache_hits\":"
         << res.gossip_checks.classes.union_cache_hits
         << ",\"union_cache_misses\":"
         << res.gossip_checks.classes.union_cache_misses
         << ",\"reduce_tree_tasks\":"
         << res.gossip_checks.classes.reduce_tree_tasks
         << ",\"seconds\":" << res.seconds;
      append_tail(os, res.gossip.ok, res.gossip.error, res);
      os << '}';
      break;
    }
  }
  return os.str();
}

std::uint64_t predicted_group_cost(const CertifyRequest& req) {
  if (req.workload == Workload::kExchangeGossip) {
    return req.n > 0 ? static_cast<std::uint64_t>(req.n) : 0;
  }
  // Streaming, and the concrete congestion pass of any broadcast
  // request, cost the concrete calls they materialize.
  if (req.workload == Workload::kBroadcastStreaming || materializes_congestion(req)) {
    if (req.n <= 0) return 0;
    if (req.n >= 63) return ~std::uint64_t{0};
    return (std::uint64_t{1} << req.n) - 1;  // concrete calls = vertices - 1
  }
  // Symbolic workloads: concurrent group counts grow with the label
  // classes of each recursion level's core window (2^window subcube
  // patterns), times the n broadcast rounds — a coarse deterministic
  // ranking, not a certificate.  Designed n = 47 (window 8) ranks ~12k,
  // the small-n mix under 1k.  Unresolvable specs rank as free (the
  // engine will refuse them cheaply anyway).
  std::uint64_t cost = req.n > 0 ? static_cast<std::uint64_t>(req.n) : 1;
  try {
    const SparseHypercubeSpec spec = resolve_spec(req);
    for (const auto& level : spec.levels()) {
      const int window = level.win_hi - level.win_lo;
      if (window > 0 && window < 64) {
        cost = saturating_mul(cost, std::uint64_t{1} << window);
      }
    }
  } catch (const std::exception&) {
    return 0;
  }
  if (req.workload == Workload::kGossipSymbolic) {
    cost = saturating_mul(cost, 2);
  }
  return cost;
}

}  // namespace shc
