#include "shc/baseline/hypercube_broadcast.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "shc/bits/vertex.hpp"

namespace shc {

FlatSchedule hypercube_binomial_broadcast(int n, Vertex source) {
  if (n < 1 || n > 28) {
    throw std::invalid_argument("hypercube_binomial_broadcast: n must be in [1, 28], got " +
                                std::to_string(n));
  }
  if (source >= cube_order(n)) {
    throw std::invalid_argument("hypercube_binomial_broadcast: source " +
                                std::to_string(source) + " out of range for n = " +
                                std::to_string(n));
  }
  const std::uint64_t order = cube_order(n);

  FlatSchedule schedule;
  schedule.source = source;
  schedule.reserve(static_cast<std::size_t>(n), order - 1, 2 * (order - 1));

  std::vector<Vertex> informed;
  informed.reserve(order);
  informed.push_back(source);
  for (Dim i = n; i >= 1; --i) {
    schedule.begin_round();
    const std::size_t frontier = informed.size();
    for (std::size_t w = 0; w < frontier; ++w) {
      const Vertex receiver = flip(informed[w], i);
      schedule.add_call({informed[w], receiver});
      informed.push_back(receiver);
    }
  }
  return schedule;
}

}  // namespace shc
