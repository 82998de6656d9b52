#include <cstdio>
#include <fstream>

namespace fake_core {

// The one file allowed to touch raw OS file APIs: the real Vfs seam lives
// at src/core/vfs.cc, so the linter must stay quiet about raw writers
// here and only here.
void RealVfsWrite(const char* path) {
  std::ofstream out(path, std::ios::binary);
  out << "payload";
  FILE* f = std::fopen(path, "ab");
  if (f != nullptr) {
    std::fclose(f);
  }
}

}  // namespace fake_core
