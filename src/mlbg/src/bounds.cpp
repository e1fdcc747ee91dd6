#include "shc/mlbg/bounds.hpp"

#include <stdexcept>
#include <string>

#include "shc/bits/bitstring.hpp"

namespace shc {
namespace {

/// Input guard: the bounds are defined only on their paper's domain
/// (outside it the counting loops would never end), so a bad argument
/// is a named std::invalid_argument, in Release too.
void require(bool ok, const char* fn, const char* domain, const std::string& got) {
  if (!ok) {
    throw std::invalid_argument(std::string(fn) + ": requires " + domain + ", got " + got);
  }
}

std::string nk(int n, int k) { return "n = " + std::to_string(n) + ", k = " + std::to_string(k); }

}  // namespace

int theorem1_k_threshold(std::uint64_t N) {
  require(N >= 1, "theorem1_k_threshold", "N >= 1", "N = " + std::to_string(N));
  return 2 * ceil_log2((N + 2) / 3 + ((N + 2) % 3 != 0 ? 1 : 0));
}

int counting_lower_bound(int n, int k) {
  require(n >= 1 && k >= 1, "counting_lower_bound", "n >= 1 and k >= 1", nk(n, k));
  for (int delta = 1;; ++delta) {
    // Vertices within distance k of the source, excluding the source:
    // delta * sum_{i=0}^{k-1} (delta-1)^i.
    std::int64_t reach = 0;
    std::int64_t term = delta;
    for (int i = 0; i < k && reach < n; ++i) {
      reach += term;
      term *= (delta - 1);
    }
    if (reach >= n) return delta;
  }
}

int lower_bound_max_degree(int n, int k) {
  require(n >= 1 && k >= 1, "lower_bound_max_degree", "n >= 1 and k >= 1", nk(n, k));
  if (k == 1) return n;  // the source's n calls all go to direct neighbors
  if (k <= 4) return ceil_root(n, k);
  // Theorem 3: Delta >= 3 and n <= 3((Delta-1)^k - 1).
  int delta = 3;
  while (3 * (ipow(delta - 1, k) - 1) < n) ++delta;
  return delta;
}

int theorem5_upper(int n) {
  require(n >= 1, "theorem5_upper", "n >= 1", "n = " + std::to_string(n));
  return 2 * ceil_root(2 * n + 4, 2) - 4;
}

int theorem7_upper(int n, int k) {
  require(n > k && k >= 2, "theorem7_upper", "n > k >= 2", nk(n, k));
  return (2 * k - 1) * ceil_root(n, k) - k;
}

int corollary1_upper(int n) {
  require(n >= 2, "corollary1_upper", "n >= 2", "n = " + std::to_string(n));
  return 4 * ceil_log2(static_cast<std::uint64_t>(n)) - 2;
}

int diameter_upper(int n, int k) noexcept { return k * n; }

}  // namespace shc
