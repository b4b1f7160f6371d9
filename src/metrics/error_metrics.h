// The paper's error metrics (Section 3, Equations 1-6).
//
// These operate on snapshots of per-relay advertised bandwidths / capacities
// / consensus weights, exactly as defined in the paper:
//
//   Eq 1: C(r,t,p)   = max advertised bandwidth in the window of length p
//   Eq 2: RCE(r,t,p) = 1 - A(r,t)/C(r,t,p)           (relay capacity error)
//   Eq 3: NCE(t,p)   = 1 - sum A / sum C             (network capacity error)
//   Eq 4: Cbar       = C / sum C                     (normalized capacity)
//   Eq 5: RWE(r,t,p) = W(r,t)/Cbar(r,t,p)            (relay weight error)
//   Eq 6: NWE(t,p)   = (1/2) sum |W - Cbar|          (network weight error;
//                                                     total variation dist.)
#pragma once

#include <span>
#include <vector>

namespace flashflow::metrics {

/// Eq 2. Requires true_capacity > 0.
double relay_capacity_error(double advertised, double true_capacity);

/// Eq 3 over aligned spans. Requires equal sizes, positive capacity sum.
double network_capacity_error(std::span<const double> advertised,
                              std::span<const double> true_capacity);

/// Eq 4: normalizes values to sum to 1. Requires a positive sum.
std::vector<double> normalize(std::span<const double> values);

/// Eq 5 on already-normalized inputs. Requires normalized_capacity > 0.
double relay_weight_error(double normalized_weight,
                          double normalized_capacity);

/// Eq 6 on already-normalized, aligned spans (total variation distance).
double network_weight_error(std::span<const double> normalized_weights,
                            std::span<const double> normalized_capacities);

}  // namespace flashflow::metrics
