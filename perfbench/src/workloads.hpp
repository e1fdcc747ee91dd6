#pragma once

#include "common.hpp"

namespace perfbench {

/// broadcast-c7: closed-loop certify() over construct(n, [7]).
[[nodiscard]] Outcome run_broadcast_c7(const RunArgs& args);

/// serve-mix: open-loop then saturating JSON lines into one ServeEngine.
[[nodiscard]] Outcome run_serve_mix(const RunArgs& args);

}  // namespace perfbench
