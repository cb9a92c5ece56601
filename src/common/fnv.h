// FNV-1a, the repo's one hash for golden traces and checksums: the per-round
// delivery-trace hash, the .repro file checksum, the wire frame checksum and
// the durable checkpoint seal all use these constants.
#pragma once

#include <cstddef>
#include <cstdint>

namespace congos {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a over a byte range, continuing from `h` (the offset basis for a
/// fresh hash).
inline std::uint64_t fnv1a(const std::uint8_t* data, std::size_t len,
                           std::uint64_t h = kFnvOffset) {
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Fold one u64 value into an FNV-1a hash, little-endian byte order: the
/// same result as fnv1a() over the value's eight little-endian bytes.
inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace congos
