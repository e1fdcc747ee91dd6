#include "shc/sim/flat_schedule.hpp"

#include <sstream>

#include "shc/bits/bitstring.hpp"

namespace shc {

std::string format_schedule(const FlatSchedule& s, int bits) {
  std::ostringstream os;
  auto name = [&](Vertex v) {
    return bits > 0 ? to_bitstring(v, bits) : std::to_string(v);
  };
  os << "broadcast from " << name(s.source) << " in " << s.num_rounds()
     << " round(s)\n";
  for (int t = 0; t < s.num_rounds(); ++t) {
    os << "  round " << (t + 1) << ":\n";
    for (const FlatSchedule::CallView c : s.round(t)) {
      os << "    " << name(c.caller()) << " -> " << name(c.receiver())
         << "  (length " << c.length();
      if (c.length() > 1) {
        os << ", via";
        for (std::size_t i = 1; i + 1 < c.size(); ++i) os << ' ' << name(c[i]);
      }
      os << ")\n";
    }
  }
  return os.str();
}

}  // namespace shc
