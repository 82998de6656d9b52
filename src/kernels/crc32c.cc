#include "kernels/crc32c.h"

#include <array>
#include <cstring>

#include "kernels/dispatch.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace sidq {
namespace kernels {

namespace {

// Reflected Castagnoli polynomial (same bitstream as SSE4.2 crc32).
constexpr uint32_t kCrc32cPoly = 0x82f63b78u;

constexpr std::array<uint32_t, 256> MakeCrc32cTable() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1u) ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
    }
    t[i] = crc;
  }
  return t;
}

constexpr std::array<uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

#if defined(__x86_64__)
// Compiled for SSE4.2 regardless of the build flags; only ever called
// after the CPUID probe below says the instruction exists.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t c = ~crc;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++data, --n) {
    c32 = _mm_crc32_u8(c32, static_cast<uint8_t>(*data));
  }
  return ~c32;
}
#endif

bool ProbeHardware() {
#if defined(__x86_64__)
  __builtin_cpu_init();  // may run during static initialization
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

}  // namespace

uint32_t Crc32cExtendSoftware(uint32_t crc, const char* data, size_t n) {
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = kCrc32cTable[(crc ^ static_cast<uint8_t>(data[i])) & 0xffu] ^
          (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32cExtendHardware(uint32_t crc, const char* data, size_t n) {
#if defined(__x86_64__)
  return ExtendSse42(crc, data, n);
#else
  return Crc32cExtendSoftware(crc, data, n);
#endif
}

bool Crc32cHardwareAvailable() {
  static const bool available = ProbeHardware();
  return available;
}

bool Crc32cHardwareActive() {
  return Crc32cHardwareAvailable() && KernelDispatch::Active() != Isa::kScalar;
}

uint32_t Crc32cExtend(uint32_t crc, const char* data, size_t n) {
  return Crc32cHardwareActive() ? Crc32cExtendHardware(crc, data, n)
                                : Crc32cExtendSoftware(crc, data, n);
}

}  // namespace kernels
}  // namespace sidq
