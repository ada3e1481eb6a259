#pragma once

namespace perfbench {

/// The benchmark's own checks: nearest-rank percentiles and the ten-beyond
/// rule, seeded schedule and request-byte determinism, the metric-name
/// grammar, and self time from nested spans. Returns the failure count
/// (each failure is reported on stderr).
int run_self_tests();

}  // namespace perfbench
