// Tor cells.
//
// Tor moves fixed-size 514-byte cells (circuit id + command + payload).
// FlashFlow's measurement cells (§4.1) are ordinary cells of this size, so
// a measured byte count converts to the cell count the echo check samples.
#pragma once

#include <cstddef>

namespace flashflow::tor {

inline constexpr std::size_t kCellSize = 514;

}  // namespace flashflow::tor
