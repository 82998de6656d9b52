#pragma once

#include <cstddef>
#include <cstdint>

namespace sidq {

// FNV-1a: the one home of the repo's non-cryptographic checksum hash
// (failpoint site draws, the stream OutputChecksum, and the bit-identity
// checksums of the tests and benches). sidq-lint R17 flags the FNV prime
// anywhere else, so a second copy cannot drift in.

inline constexpr uint64_t kFnvPrime = 1099511628211ull;

// The standard 64-bit FNV-1a offset basis.
inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;

// The offset basis with its last digit dropped. Failpoint draws and
// several recorded checksums were first produced with this seed; those
// sites keep it so their values stay bit-identical.
inline constexpr uint64_t kFnvTruncatedBasis = 1469598103934665603ull;

// Byte-wise FNV-1a over `n` bytes of `data`, continuing from `seed`
// (pass a previous result to chain buffers).
[[nodiscard]] inline uint64_t Fnv1a(const void* data, size_t n,
                                    uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

// One FNV-1a step over a whole 64-bit word (not byte-wise): the mixer
// the bench checksums over raw double bit patterns use.
[[nodiscard]] inline uint64_t FnvMixWord(uint64_t h, uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

}  // namespace sidq
