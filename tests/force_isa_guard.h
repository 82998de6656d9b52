#pragma once

#include <cstdlib>
#include <string>

#include "kernels/dispatch.h"

namespace sidq {
namespace kernels {

// Restores the dispatch state (SIDQ_FORCE_ISA + the resolved tier) no
// matter how a test exits, so tier-forcing tests cannot leak into later
// tests.
class ForceIsaGuard {
 public:
  ForceIsaGuard() {
    const char* v = std::getenv("SIDQ_FORCE_ISA");
    if (v != nullptr) saved_ = v;
    had_ = v != nullptr;
  }
  ~ForceIsaGuard() {
    if (had_) {
      setenv("SIDQ_FORCE_ISA", saved_.c_str(), 1);
    } else {
      unsetenv("SIDQ_FORCE_ISA");
    }
    KernelDispatch::ReinitForTest();
  }
  ForceIsaGuard(const ForceIsaGuard&) = delete;
  ForceIsaGuard& operator=(const ForceIsaGuard&) = delete;

  // Pins the tier named `isa` (nullptr: unpinned, the widest available)
  // and re-resolves the dispatch.
  void Force(const char* isa) {
    if (isa != nullptr) {
      setenv("SIDQ_FORCE_ISA", isa, 1);
    } else {
      unsetenv("SIDQ_FORCE_ISA");
    }
    KernelDispatch::ReinitForTest();
  }

 private:
  std::string saved_;
  bool had_ = false;
};

}  // namespace kernels
}  // namespace sidq
