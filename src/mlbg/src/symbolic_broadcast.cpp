#include "shc/mlbg/symbolic_broadcast.hpp"

#include <stdexcept>

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
  if (source >= spec.num_vertices()) {
    // Same report the other validators give; guarded here so the
    // producer's explicit throw never preempts the sink's verdict.
    cert.report.ok = false;
    cert.report.error = "source out of range";
    return cert;
  }
  const SpecView view(spec);
  SymbolicBroadcastValidator<SpecView> sink(view, source, opt, sopt);
  try {
    cert.producer =
        emit_broadcast_rounds_symbolic(spec, source, sink, sopt.max_frontier_subcubes);
  } catch (const std::exception& e) {
    cert.checks = sink.stats();
    if (!sink.aborted()) {
      // Producer-side failure (caps, pathological splits): surface it
      // as a failed report rather than an escaped exception.
      cert.report.ok = false;
      cert.report.error = std::string("symbolic producer: ") + e.what();
      return cert;
    }
    // The sink failed first and the producer tripped over the abort —
    // fall through to the sink's own report.
  }
  cert.report = sink.finish();
  cert.checks = sink.stats();
  return cert;
}

}  // namespace shc
