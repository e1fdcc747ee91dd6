// Network designer: given a target size and call-length budget, emit a
// deployable design — topology stats, per-level wiring plan, DOT file,
// and a validated broadcast schedule.
//
//   ./network_designer <n> <k> [--dot out.dot] [--schedule source-bits]
//
// This is the workflow the paper motivates: an engineer has N = 2^n
// nodes and a switching fabric that can hold circuits of k hops, and
// wants the cheapest (minimum fan-out) wiring that still broadcasts in
// optimal time from anywhere.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "shc/shc.hpp"

namespace {

void usage() {
  std::cerr << "usage: network_designer <n 3..16> <k 2..n-1> [--dot FILE] "
               "[--schedule BITS]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace shc;

  if (argc < 3) {
    usage();
    return 1;
  }
  const int n = std::atoi(argv[1]);
  const int k = std::atoi(argv[2]);
  if (n < 3 || n > 16 || k < 2 || k >= n) {
    usage();
    return 1;
  }
  std::string dot_file;
  std::string schedule_bits;
  for (int a = 3; a + 1 < argc; a += 2) {
    const std::string flag = argv[a];
    if (flag == "--dot") {
      dot_file = argv[a + 1];
    } else if (flag == "--schedule") {
      schedule_bits = argv[a + 1];
    } else {
      usage();
      return 1;
    }
  }

  const auto spec = design_sparse_hypercube(n, k);

  std::cout << "=== design for N = 2^" << n << " nodes, k = " << k << " ===\n";
  std::cout << "max fan-out " << spec.max_degree() << " (vs " << n
            << " for the full hypercube; theoretical floor "
            << lower_bound_max_degree(n, k) << ")\n";
  std::cout << "links " << spec.num_edges() << " (vs "
            << (static_cast<std::uint64_t>(n) << (n - 1)) << ")\n";
  std::cout << "broadcast time " << n << " rounds from any node (optimal)\n";
  std::cout << "worst-case circuit length " << k << " hops\n\n";

  std::cout << "wiring plan:\n";
  std::cout << "  dims 1.." << spec.core_dim() << ": full Q_" << spec.core_dim()
            << " clusters (every node)\n";
  for (std::size_t t = 0; t < spec.levels().size(); ++t) {
    const auto& lv = spec.levels()[t];
    std::cout << "  level " << (t + 1) << ": nodes keyed by bits (" << lv.win_lo + 1
              << ".." << lv.win_hi << ") into " << lv.labeling.num_labels()
              << " classes; class j wires dims of S_j within (" << lv.dim_lo + 1
              << ".." << lv.dim_hi << "), at most " << lv.max_owned()
              << " per node\n";
  }

  if (!dot_file.empty()) {
    const Graph g = spec.materialize();
    std::ofstream out(dot_file);
    if (!out) {
      std::cerr << "cannot write " << dot_file << "\n";
      return 2;
    }
    write_dot(out, g, "sparse_hypercube", n);
    std::cout << "\nwrote DOT topology to " << dot_file << "\n";
  }

  if (!schedule_bits.empty()) {
    const auto parsed = parse_bitstring(schedule_bits);
    if (!parsed || *parsed >= spec.num_vertices()) {
      std::cerr << "bad --schedule source\n";
      return 2;
    }
    const auto schedule = make_broadcast_schedule(spec, *parsed);
    const auto report =
        validate_minimum_time_k_line(SpecView{spec}, schedule, k);
    std::cout << "\n" << format_schedule(schedule, n);
    std::cout << "validated: " << (report.ok ? "ok" : report.error)
              << "; minimum-time: " << (report.minimum_time ? "yes" : "no") << "\n";
    const auto stats = analyze_congestion(schedule);
    std::cout << "edge load: mean " << stats.mean_edge_load << ", max "
              << stats.max_edge_load_total << " across rounds\n";
  }

  return 0;
}
