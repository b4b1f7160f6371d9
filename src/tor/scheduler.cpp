#include "tor/scheduler.h"

#include <stdexcept>

namespace flashflow::tor {

double SchedulerModel::normal_aggregate_cap(int sockets) const {
  if (sockets < 0)
    throw std::invalid_argument("SchedulerModel: negative sockets");
  return kist_per_socket_cap_bits * sockets;
}

}  // namespace flashflow::tor
