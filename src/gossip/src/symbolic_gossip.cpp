#include "shc/gossip/symbolic_gossip.hpp"

#include <stdexcept>

namespace shc {

SymbolicSchedule hypercube_exchange_gossip_symbolic(int n) {
  if (n < 1 || n > kMaxCubeDim) {
    throw std::invalid_argument(
        "hypercube_exchange_gossip_symbolic requires 1 <= n <= " +
        std::to_string(kMaxCubeDim));
  }
  SymbolicScheduleBuilder builder(0, n);
  for (Dim i = n; i >= 1; --i) {
    builder.begin_round();
    CallGroup g;
    g.prefix = 0;  // coordinate i pinned to 0: the lower endpoint calls
    g.free_mask = mask_low(n) & ~dim_bit(i);
    g.count = cube_order(n - 1);
    const Vertex pattern[2] = {0, dim_bit(i)};
    builder.end_call_group(g, pattern);
    builder.end_round();
  }
  return std::move(builder).take();
}

SymbolicSchedule make_symbolic_gossip_schedule(const SparseHypercubeSpec& spec,
                                               Vertex root) {
  const SymbolicSchedule forward = make_symbolic_broadcast_schedule(spec, root);
  SymbolicScheduleBuilder builder(root, spec.n());
  emit_gather_broadcast_gossip_symbolic(forward, builder);
  return std::move(builder).take();
}

SymbolicGossipCertification certify_gossip_symbolic(
    const SparseHypercubeSpec& spec, Vertex root,
    const SymbolicGossipOptions& sopt) {
  require_check_threads("certify_gossip_symbolic: threads", sopt.threads);
  SymbolicGossipCertification cert;
  if (root >= spec.num_vertices()) {
    // Same report the exact validators would give for a bad schedule
    // source; guarded here so the producer's throw never preempts it.
    cert.report.ok = false;
    cert.report.error = "source out of range";
    return cert;
  }
  const SpecView view(spec);
  SymbolicGossipValidator<SpecView> sink(view, spec.k(), sopt);
  cert.report = detail::certify_produced(sink, &cert.checks, [&] {
    emit_gather_broadcast_gossip_symbolic(make_symbolic_broadcast_schedule(spec, root),
                                          sink);
  });
  return cert;
}

SymbolicGossipCertification certify_exchange_gossip_symbolic(
    int n, const SymbolicGossipOptions& sopt) {
  require_check_threads("certify_exchange_gossip_symbolic: threads", sopt.threads);
  SymbolicGossipCertification cert;
  if (n < 1 || n > kMaxCubeDim) {
    cert.report.ok = false;
    cert.report.error = "cube dimension out of range";
    return cert;
  }
  const CubeOracle oracle(n);
  cert.report = detail::replay_symbolic(
      hypercube_exchange_gossip_symbolic(n), n, &cert.checks,
      [&] { return SymbolicGossipValidator<CubeOracle>(oracle, /*k=*/1, sopt); });
  return cert;
}

}  // namespace shc
