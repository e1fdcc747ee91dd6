// Gossip demo: all-to-all exchange under the k-line model — the paper's
// Section-5 open direction, made runnable.
//
//   ./gossip_demo [n] [k]     (defaults n = 8, k = 3)
//
// Compares the optimal dimension-exchange gossip on the full cube with
// the provable gather+broadcast gossip on the degree-reduced sparse
// hypercube, validating both and printing the round gap.
#include <cstdlib>
#include <iostream>

#include "shc/shc.hpp"

int main(int argc, char** argv) {
  using namespace shc;

  const int n = argc > 1 ? std::atoi(argv[1]) : 8;
  const int k = argc > 2 ? std::atoi(argv[2]) : 3;
  if (n < 3 || n > 12 || k < 2 || k >= n) {
    std::cerr << "usage: gossip_demo [n in 3..12] [k in 2..n-1]\n";
    return 1;
  }

  std::cout << "gossip on 2^" << n << " = " << cube_order(n)
            << " vertices (lower bound " << n << " rounds)\n\n";

  {
    const CubeOracle qn(n);
    const auto schedule = hypercube_exchange_gossip(n);
    const auto rep = validate_gossip(qn, schedule, 1);
    std::cout << "full cube Q_" << n << " (degree " << n << ", k = 1):\n"
              << "  dimension exchange: " << rep.rounds << " rounds, "
              << (rep.ok ? "validated" : rep.error) << ", optimal "
              << (rep.minimum_time ? "yes" : "no") << "\n";
  }

  {
    const auto spec = design_sparse_hypercube(n, k);
    const SpecView view(spec);
    const auto schedule = sparse_gather_broadcast_gossip(spec, 0);
    const auto rep = validate_gossip(view, schedule, k);
    std::cout << "sparse hypercube (degree " << spec.max_degree() << ", k = " << k
              << "):\n"
              << "  gather+broadcast: " << rep.rounds << " rounds, "
              << (rep.ok ? "validated" : rep.error) << ", max call length "
              << rep.max_call_length << "\n";
    std::cout << "\nThe 2x round gap on the sparse graph is the open problem the\n"
                 "paper poses: can o(n)-degree k-line networks gossip in n rounds?\n";
    return rep.ok ? 0 : 2;
  }
}
