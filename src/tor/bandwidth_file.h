// Tor bandwidth-file format (dir-spec / bandwidth-file-spec v1.x).
//
// BWAuths hand their results to the DirAuths as "bandwidth files": a
// timestamp header, `key=value` header lines, then one relay per line of
// space-separated key=value pairs. FlashFlow writes `bw=` (consensus weight
// units, kilobytes/s) plus its capacity estimate; this module serializes
// and parses that format so a deployment can interoperate with Tor's
// existing tooling.
#pragma once

#include <cstdint>
#include <string>

#include "tor/authority.h"

namespace flashflow::tor {

struct BandwidthFileHeader {
  std::int64_t timestamp = 0;      // seconds since epoch (or sim start)
  std::string version = "1.4.0";
  std::string software = "flashflow";
  std::string software_version = "1.0";
};

/// Serializes a bandwidth file. Weights are emitted as `bw=` in KB/s
/// (rounded, minimum 1); capacities (when non-zero) as
/// `flashflow_capacity_mbits=`.
std::string serialize_bandwidth_file(const BandwidthFileHeader& header,
                                     const BandwidthFile& entries);

/// Parses the serialized form back. Throws std::invalid_argument on
/// malformed input (bad header, missing bw=, negative values).
struct ParsedBandwidthFile {
  BandwidthFileHeader header;
  BandwidthFile entries;
};
ParsedBandwidthFile parse_bandwidth_file(const std::string& text);

}  // namespace flashflow::tor
