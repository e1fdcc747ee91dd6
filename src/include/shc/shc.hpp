// Umbrella header for the sparse-hypercube library.
//
// The recommended public surface is the src/api facade: one request,
// one result, one JSON row — examples/quickstart.cpp, shc_sweep, and
// the shc_serve server are all thin clients of it.
//
//   CertifyRequest req;                      // shc/api/certify.hpp
//   req.workload = Workload::kBroadcastSymbolic;
//   req.n = 48;                              // cuts empty -> designed spec
//   CertifyResult res = certify(req);        // report + stats + timing
//   std::cout << to_json_row(res) << "\n";   // the shc_sweep row schema
//
// and for a long-lived cached service (newline-delimited JSON,
// certificate cache, admission control — examples/shc_serve.cpp is the
// stdin/socket transport around it):
//
//   ServeEngine engine({.threads = 4});      // shc/api/serve.hpp
//   engine.handle_line("{\"workload\":\"gossip-symbolic\",\"n\":24}");
//
// Choosing an engine (Workload values; details in README.md):
//
//   | workload / entry point              | limit  | character           |
//   |-------------------------------------|--------|---------------------|
//   | make_broadcast_schedule             | n <= 28| you need the        |
//   |   (materialized, engine internals)  |        | schedule itself     |
//   | kBroadcastStreaming                 | n <= 32| exact per-call      |
//   |   certify_broadcast_streaming       |        | checks, memory =    |
//   |                                     |        | largest round       |
//   | kBroadcastSymbolic                  | n <= 63| subcube groups,     |
//   |   certify_broadcast_symbolic        |        | polynomial cost,    |
//   |                                     |        | paper's exact model |
//   | kGossipSymbolic                     | n <= 63| gather-broadcast    |
//   |   certify_gossip_symbolic           |        | all-to-all exchange |
//   | kExchangeGossip                     | n <= 59| dimension-exchange  |
//   |   certify_exchange_gossip_symbolic  |        | on the full Q_n     |
//
//   Gossip validators: validate_gossip (exact, N <= 2^13, N^2 knowledge
//   bits) / certify_gossip_symbolic (N <= 2^63, algebraic
//   certification).
//
// Shared engine knobs (threads, borrowed WorkerPool, occupancy-ledger
// budgets, sampling) live in CommonCheckOptions
// (shc/sim/check_options.hpp), inherited by both SymbolicCheckOptions
// and SymbolicGossipOptions.  Every engine's report is bit-for-bit
// identical across thread counts and borrowed vs. owned pools.
//
// Lower-level tour, for callers that need engine internals directly:
//   SparseHypercubeSpec::construct_base(n, m)  — the paper's k = 2 graph
//   design_sparse_hypercube(n, k)              — best cuts for general k
//   make_broadcast_schedule(spec, source)      — Broadcast_k scheme, as the
//                                                one schedule type FlatSchedule
//   validate_minimum_time_k_line(view, s, k)   — mechanical model check over
//                                                a SpecView / CubeOracle /
//                                                GraphView oracle
//   analyze_congestion(schedule, threads)      — edge-load statistics, the
//                                                one congestion engine (a
//                                                symbolic schedule goes
//                                                through from_symbolic)
#pragma once

#include "shc/api/certify.hpp"
#include "shc/api/serve.hpp"
#include "shc/bits/bitstring.hpp"
#include "shc/bits/vertex.hpp"
#include "shc/graph/algorithms.hpp"
#include "shc/graph/generators.hpp"
#include "shc/graph/graph.hpp"
#include "shc/graph/io.hpp"
#include "shc/coding/gf2.hpp"
#include "shc/coding/hamming.hpp"
#include "shc/gossip/gossip.hpp"
#include "shc/gossip/symbolic_gossip.hpp"
#include "shc/labeling/domatic.hpp"
#include "shc/labeling/labeling.hpp"
#include "shc/mlbg/analysis.hpp"
#include "shc/mlbg/bounds.hpp"
#include "shc/mlbg/broadcast.hpp"
#include "shc/mlbg/params.hpp"
#include "shc/mlbg/spec.hpp"
#include "shc/mlbg/symbolic_broadcast.hpp"
#include "shc/sim/check_options.hpp"
#include "shc/sim/congestion.hpp"
#include "shc/sim/flat_schedule.hpp"
#include "shc/sim/knowledge_classes.hpp"
#include "shc/sim/network.hpp"
#include "shc/sim/occupancy_ledger.hpp"
#include "shc/sim/round_sink.hpp"
#include "shc/sim/streaming_validator.hpp"
#include "shc/sim/subcube.hpp"
#include "shc/sim/symbolic_schedule.hpp"
#include "shc/sim/symbolic_validator.hpp"
#include "shc/sim/validator.hpp"
#include "shc/sim/worker_pool.hpp"
#include "shc/baseline/hypercube_broadcast.hpp"
#include "shc/baseline/path_star.hpp"
#include "shc/baseline/tree_broadcast.hpp"
