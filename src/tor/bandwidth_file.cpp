#include "tor/bandwidth_file.h"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "net/units.h"
#include "util/strict_parse.h"

namespace flashflow::tor {

namespace {
constexpr double kBitsPerKByte = 8000.0;  // bandwidth-file bw unit

/// Splits "key=value" and returns the pair; throws on missing '='.
std::pair<std::string, std::string> split_kv(const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos)
    throw std::invalid_argument("bandwidth file: token without '=': " +
                                token);
  return {token.substr(0, eq), token.substr(eq + 1)};
}
}  // namespace

std::string serialize_bandwidth_file(const BandwidthFileHeader& header,
                                     const BandwidthFile& entries) {
  // A relay line is its fingerprint plus at most 56 bytes for capacities
  // up to 10 Gbit/s.
  std::string out;
  std::size_t size = 64 + header.version.size() + header.software.size() +
                     header.software_version.size();
  for (const auto& e : entries) size += 64 + e.fingerprint.size();
  out.reserve(size);
  // Wide enough for any double in fixed notation with three decimals
  // (DBL_MAX has 309 integer digits).
  char buf[320];
  const auto append = [&](std::to_chars_result written) {
    out.append(buf, written.ptr);
  };
  append(std::to_chars(buf, buf + sizeof buf, header.timestamp));
  out += "\nversion=";
  out += header.version;
  out += "\nsoftware=";
  out += header.software;
  out += "\nsoftware_version=";
  out += header.software_version;
  out += "\n=====\n";  // header terminator (spec: "=====")
  for (const auto& e : entries) {
    const auto bw_kb = static_cast<long long>(
        std::max(1.0, std::round(e.weight / kBitsPerKByte)));
    out += "node_id=$";
    out += e.fingerprint;
    out += " bw=";
    append(std::to_chars(buf, buf + sizeof buf, bw_kb));
    if (e.capacity_bits > 0.0) {
      // Fixed with precision 3 rounds exactly as printf's "%.3f" does.
      out += " flashflow_capacity_mbits=";
      append(std::to_chars(buf, buf + sizeof buf,
                           net::to_mbit(e.capacity_bits),
                           std::chars_format::fixed, 3));
    }
    out += '\n';
  }
  return out;
}

ParsedBandwidthFile parse_bandwidth_file(const std::string& text) {
  std::istringstream in(text);
  ParsedBandwidthFile parsed;
  std::string line;

  if (!std::getline(in, line))
    throw std::invalid_argument("bandwidth file: empty");
  // Strict whole-line parse: a corrupted timestamp line ("123abc") must be
  // rejected, not silently truncated to 123.
  parsed.header.timestamp =
      util::parse_i64(line, "bandwidth file: timestamp");

  bool in_header = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (in_header) {
      if (line == "=====") {
        in_header = false;
        continue;
      }
      const auto [key, value] = split_kv(line);
      if (key == "version") parsed.header.version = value;
      else if (key == "software") parsed.header.software = value;
      else if (key == "software_version")
        parsed.header.software_version = value;
      continue;  // unknown header keys are ignored per spec
    }

    BandwidthFileEntry entry;
    bool have_bw = false;
    std::istringstream tokens(line);
    std::string token;
    while (tokens >> token) {
      const auto [key, value] = split_kv(token);
      if (key == "node_id") {
        entry.fingerprint =
            !value.empty() && value[0] == '$' ? value.substr(1) : value;
      } else if (key == "bw") {
        // Whole-token parse naming the key: "bw=12junk" is corruption, not
        // a 12 KB/s relay; overflow reports the offending value too.
        const double kb = util::parse_double(value, "bandwidth file: "
                                                    "key 'bw'");
        if (kb < 0.0)
          throw std::invalid_argument("bandwidth file: negative bw");
        entry.weight = kb * kBitsPerKByte;
        have_bw = true;
      } else if (key == "flashflow_capacity_mbits") {
        const double mbits = util::parse_double(
            value, "bandwidth file: key 'flashflow_capacity_mbits'");
        if (mbits < 0.0)
          throw std::invalid_argument("bandwidth file: negative capacity");
        entry.capacity_bits = net::mbit(mbits);
      }
    }
    if (entry.fingerprint.empty())
      throw std::invalid_argument("bandwidth file: relay line w/o node_id");
    if (!have_bw)
      throw std::invalid_argument("bandwidth file: relay line w/o bw");
    parsed.entries.push_back(std::move(entry));
  }
  if (in_header)
    throw std::invalid_argument("bandwidth file: missing ===== terminator");
  return parsed;
}

BandwidthFile make_flashflow_entries(
    std::span<const std::string> fingerprints,
    std::span<const double> capacity_bits) {
  if (fingerprints.size() != capacity_bits.size())
    throw std::invalid_argument(
        "make_flashflow_entries: fingerprints/capacities misaligned");
  BandwidthFile entries;
  entries.reserve(fingerprints.size());
  for (std::size_t i = 0; i < fingerprints.size(); ++i) {
    if (capacity_bits[i] <= 0.0) continue;
    entries.push_back(
        {fingerprints[i], capacity_bits[i], capacity_bits[i]});
  }
  return entries;
}

}  // namespace flashflow::tor
