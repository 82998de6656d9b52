#pragma once

#include <cstdint>

namespace fake_core {

// The one file allowed to spell the FNV prime: the linter must stay quiet
// here and only here.
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

}  // namespace fake_core
