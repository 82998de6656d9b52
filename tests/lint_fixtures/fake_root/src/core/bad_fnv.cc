#include <cstdint>

namespace bad {

// A private FNV-1a copy: exactly what src/core/hash.h exists to replace.
// (The prime 1099511628211 in this comment is not a finding.)
uint64_t PrivateFnv(const char* s) {
  uint64_t h = 14695981039346656037ull;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 1099511628211ull;  // expect-lint: R17
  }
  return h;
}

uint64_t HexPrime(uint64_t h) { return h * 0x100000001b3ULL; }  // expect-lint: R17

// Clean: a longer literal that merely starts with the prime's digits, and
// the prime inside a string.
constexpr uint64_t kNotThePrime = 10995116282110ull;
const char* kDoc = "FNV prime 1099511628211";

}  // namespace bad
