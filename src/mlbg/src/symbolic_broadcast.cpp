#include "shc/mlbg/symbolic_broadcast.hpp"

#include "shc/mlbg/params.hpp"

namespace shc {

SparseHypercubeSpec symbolic_showcase_spec(int n, int k) {
  return n <= 48 ? design_sparse_hypercube(n, k)
                 : SparseHypercubeSpec::construct_base(n, 6);
}

SymbolicSchedule make_symbolic_broadcast_schedule(const SparseHypercubeSpec& spec,
                                                  Vertex source) {
  SymbolicScheduleBuilder builder(source, spec.n());
  emit_broadcast_rounds_symbolic(spec, source, builder);
  return std::move(builder).take();
}

SymbolicCertification certify_broadcast_symbolic(const SparseHypercubeSpec& spec,
                                                 Vertex source,
                                                 const ValidationOptions& opt,
                                                 const SymbolicCheckOptions& sopt) {
  require_check_threads("certify_broadcast_symbolic: threads", sopt.threads);
  SymbolicCertification cert;
  const SpecView view(spec);
  // An out-of-range source fails the validator here, so the producer's
  // throw over it defers to the validator's "source out of range".
  SymbolicBroadcastValidator<SpecView> sink(view, source, opt, sopt);
  cert.report = detail::certify_produced(sink, &cert.checks, [&] {
    cert.producer =
        emit_broadcast_rounds_symbolic(spec, source, sink, sopt.max_frontier_subcubes);
  });
  return cert;
}

}  // namespace shc
