#pragma once

#include <cstddef>
#include <cstdint>

namespace sidq {
namespace kernels {

// CRC32C (Castagnoli, reflected polynomial 0x82f63b78): the checksum every
// durable-store block and manifest carries.
//
// Two implementations of one function:
//   software  byte-at-a-time table loop -- portable, and the oracle
//   hardware  the SSE4.2 `crc32` instruction (8-byte words, then a byte
//             tail); x86-64 only
// Both compute the same polynomial, so every CRC is byte-identical
// whichever path wrote it. The dispatched entry point uses hardware when
// the CPU supports SSE4.2 and the kernel tier (dispatch.h) is not scalar:
// SIDQ_FORCE_ISA=scalar pins the software path, the same oracle leg the
// distance kernels use.

// Extends `crc` (the value of a previous call, or 0 to start) over
// `data[0, n)`: Crc32cExtend(Crc32cExtend(0, a), b) == Crc32c(a || b).
uint32_t Crc32cExtend(uint32_t crc, const char* data, size_t n);

inline uint32_t Crc32c(const char* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

// The software path (always available).
uint32_t Crc32cExtendSoftware(uint32_t crc, const char* data, size_t n);

// The hardware path. Precondition: Crc32cHardwareAvailable().
uint32_t Crc32cExtendHardware(uint32_t crc, const char* data, size_t n);

// True when the hardware path is compiled in and the CPU supports SSE4.2.
bool Crc32cHardwareAvailable();

// True when Crc32cExtend currently runs the hardware path: available, and
// the active kernel tier is not scalar. Follows
// KernelDispatch::ReinitForTest().
bool Crc32cHardwareActive();

}  // namespace kernels
}  // namespace sidq
