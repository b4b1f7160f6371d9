// Measurement-duration strategy (Appendix E.3).
//
// The deployed strategy takes the median of the first 30 per-second
// samples; Fig 16 compares it against medians over 10, 20 and 60 seconds.
#pragma once

#include <span>

namespace flashflow::core {

/// Simple strategy: median of the first `seconds` samples. Requires
/// 1 <= seconds <= samples.size().
double median_strategy(std::span<const double> per_second_bits, int seconds);

}  // namespace flashflow::core
