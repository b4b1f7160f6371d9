#include "trafficgen/benchmark.h"

namespace flashflow::trafficgen {

std::vector<double> BenchmarkResults::ttfb_all() const {
  std::vector<double> out;
  for (const auto& r : records)
    if (!r.timed_out) out.push_back(r.ttfb_s);
  return out;
}

std::vector<double> BenchmarkResults::ttlb_for(TransferSize size) const {
  std::vector<double> out;
  for (const auto& r : records)
    if (!r.timed_out && r.size == size) out.push_back(r.ttlb_s);
  return out;
}

double BenchmarkResults::error_rate() const {
  if (records.empty()) return 0.0;
  std::size_t errors = 0;
  for (const auto& r : records)
    if (r.timed_out) ++errors;
  return static_cast<double>(errors) / records.size();
}

}  // namespace flashflow::trafficgen
