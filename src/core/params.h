// FlashFlow protocol parameters with the paper's recommended defaults
// (§6.1, Appendix E).
#pragma once

#include <stdexcept>
#include <string>

#include "sim/time.h"

namespace flashflow::core {

struct Params {
  /// Total measurement sockets across all measurers (Appendix E.1: the
  /// value that maximizes throughput on the slowest host).
  int sockets = 160;
  /// Base capacity multiplier m (Appendix E.2: smallest value that avoids
  /// outliers below 80% of ground truth).
  double multiplier = 2.25;
  /// Measurement slot duration t in seconds (Appendix E.3: the 30-second
  /// median had the tightest accuracy range).
  int slot_seconds = 30;
  /// Error bounds (Appendix E.5): estimates land in ((1-e1)x, (1+e2)x).
  double epsilon1 = 0.20;
  double epsilon2 = 0.05;
  /// Max fraction r of total traffic that may be normal client traffic
  /// during a measurement (§6.2: bounds a liar's advantage to 1/(1-r)).
  double ratio = 0.25;
  /// Cell spot-check probability (§4.1).
  double check_probability = 1e-5;
  /// Measurement period: every relay is measured once per period (§4.3).
  sim::SimDuration period = sim::kDay;

  /// Parameter sets are value types (scenario round-trip tests compare
  /// whole specs).
  friend bool operator==(const Params&, const Params&) = default;

  /// Excess allocation factor f = m (1 + eps2) / (1 - eps1) (§4.2).
  double excess_factor() const {
    return multiplier * (1.0 + epsilon2) / (1.0 - epsilon1);
  }

  /// Upper bound on a lying relay's capacity inflation: 1/(1-r) (§5).
  double max_inflation() const { return 1.0 / (1.0 - ratio); }

  /// Rejects parameter combinations the protocol math cannot support
  /// (epsilon1 or ratio at/above 1 divide by zero in the excess factor and
  /// the background clamp; non-positive sockets/slot make every slot
  /// degenerate; with m < 1 no second meets the aggregation's a_cov >= A/m
  /// bar, even at full coverage). Throws std::invalid_argument naming the
  /// bad field.
  void validate() const {
    const auto reject = [](const std::string& what) {
      throw std::invalid_argument("Params::validate: " + what);
    };
    if (sockets <= 0) reject("sockets must be positive");
    if (multiplier < 1.0) reject("multiplier must be >= 1");
    if (slot_seconds <= 0) reject("slot_seconds must be positive");
    if (epsilon1 < 0.0 || epsilon1 >= 1.0) reject("epsilon1 must be in [0, 1)");
    if (epsilon2 < 0.0) reject("epsilon2 must be non-negative");
    if (ratio < 0.0 || ratio >= 1.0) reject("ratio must be in [0, 1)");
    if (check_probability < 0.0 || check_probability > 1.0)
      reject("check_probability must be in [0, 1]");
    if (period <= 0) reject("period must be positive");
  }
};

}  // namespace flashflow::core
