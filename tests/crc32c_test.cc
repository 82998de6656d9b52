// CRC32C kernel tests: the RFC 3720 known answers on every path, hardware
// == software for every length and alignment, the Extend chaining law,
// and SIDQ_FORCE_ISA=scalar pinning the software path.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "force_isa_guard.h"
#include "kernels/crc32c.h"
#include "kernels/dispatch.h"

namespace sidq {
namespace kernels {
namespace {

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

// Every path this host can run, named for failure messages.
std::vector<std::pair<const char*, ExtendFn>> Paths() {
  std::vector<std::pair<const char*, ExtendFn>> out = {
      {"dispatched", &Crc32cExtend}, {"software", &Crc32cExtendSoftware}};
  if (Crc32cHardwareAvailable()) {
    out.emplace_back("hardware", &Crc32cExtendHardware);
  }
  return out;
}

TEST(Crc32cKernelTest, KnownAnswersOnEveryPath) {
  std::string zeros(32, '\x00'), ones(32, '\xff'), up(32, 0), down(32, 0);
  for (int i = 0; i < 32; ++i) {
    up[i] = static_cast<char>(i);
    down[i] = static_cast<char>(31 - i);
  }
  for (const auto& [name, extend] : Paths()) {
    // RFC 3720 appendix B.4.
    EXPECT_EQ(extend(0, zeros.data(), zeros.size()), 0x8a9136aau) << name;
    EXPECT_EQ(extend(0, ones.data(), ones.size()), 0x62a8ab43u) << name;
    EXPECT_EQ(extend(0, up.data(), up.size()), 0x46dd794eu) << name;
    EXPECT_EQ(extend(0, down.data(), down.size()), 0x113fdb5cu) << name;
    EXPECT_EQ(extend(0, "123456789", 9), 0xe3069283u) << name;
    EXPECT_EQ(extend(0, "", 0), 0u) << name;
  }
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
}

TEST(Crc32cKernelTest, HardwareMatchesSoftwareAtEveryLengthAndOffset) {
  if (!Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 crc32 on this host";
  }
  std::string buf(300 + 8, 0);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<char>((i * 131 + 7) ^ (i >> 3));
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const char* p = buf.data() + offset;
      for (uint32_t seed : {0u, 0xdeadbeefu}) {
        ASSERT_EQ(Crc32cExtendHardware(seed, p, len),
                  Crc32cExtendSoftware(seed, p, len))
            << "offset " << offset << " len " << len << " seed " << seed;
      }
    }
  }
}

TEST(Crc32cKernelTest, ExtendChainsLikeConcatenation) {
  std::string data(97, 0);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 37 + 1);
  }
  for (const auto& [name, extend] : Paths()) {
    const uint32_t whole = extend(0, data.data(), data.size());
    for (size_t split = 0; split <= data.size(); ++split) {
      const uint32_t a = extend(0, data.data(), split);
      EXPECT_EQ(extend(a, data.data() + split, data.size() - split), whole)
          << name << " split " << split;
    }
  }
}

TEST(Crc32cKernelTest, ForcedScalarPinsTheSoftwarePath) {
  ForceIsaGuard guard;
  guard.Force("scalar");
  EXPECT_EQ(KernelDispatch::Active(), Isa::kScalar);
  EXPECT_FALSE(Crc32cHardwareActive());
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);

  guard.Force(nullptr);
  EXPECT_EQ(Crc32cHardwareActive(), Crc32cHardwareAvailable());
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
}

}  // namespace
}  // namespace kernels
}  // namespace sidq
