// Figure-4 reproduction: the paper's worked broadcast in G_{4,2}.
//
//   ./broadcast_trace [source-bits]   (default 0000, e.g. "1011")
//
// Builds Example 2's graph (Example-1 labeling of Q_2, S_1 = {3},
// S_2 = {4}), prints the full round-by-round call trace with the
// length-2 detours through Rule-1 neighbors, and validates it.
#include <iostream>
#include <string>

#include "shc/shc.hpp"

int main(int argc, char** argv) {
  using namespace shc;

  const auto g42 = SparseHypercubeSpec::construct_base(4, 2, example1_labeling_m2());

  Vertex source = 0;
  if (argc > 1) {
    const auto parsed = parse_bitstring(argv[1]);
    if (!parsed || *parsed >= g42.num_vertices()) {
      std::cerr << "usage: broadcast_trace [4-bit source, e.g. 0110]\n";
      return 1;
    }
    source = *parsed;
  }

  std::cout << "G_{4,2}: " << g42.num_vertices() << " vertices, " << g42.num_edges()
            << " edges, " << g42.max_degree() << "-regular (Example 2 / Figure 3)\n";
  std::cout << "labels: suffix 00/11 -> c1 owns dim {3}; suffix 01/10 -> c2 owns dim {4}\n\n";

  const auto schedule = make_broadcast_schedule(g42, source);
  std::cout << format_schedule(schedule, 4);

  const auto report = validate_minimum_time_k_line(SpecView{g42}, schedule, 2);
  std::cout << "\nvalidated under 2-line model: " << (report.ok ? "ok" : report.error)
            << "; minimum-time (" << report.rounds << " = ceil(log2 16)): "
            << (report.minimum_time ? "yes" : "no") << "\n";

  std::cout << "\nPaper cross-check (Example 4, source 0000): round 1 places one\n"
               "length-2 call through a Rule-1 neighbor into the 1xxx half; round 2\n"
               "doubles into the dim-3 halves; rounds 3-4 flood the 2-cubes.\n";
  return report.ok ? 0 : 2;
}
