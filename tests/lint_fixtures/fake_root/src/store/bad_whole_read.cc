#include <string>

#include "geometry/point.h"  // transitive through sidq_core: clean

namespace fake_store {

struct FakeVfs {
  std::string ReadFile(const std::string& path) const { return path; }
};

// Whole-segment slurp inside src/store/: exactly what the bounded
// BlockReader exists to replace.
std::string LoadSegment(const FakeVfs& vfs, const std::string& path) {
  return vfs.ReadFile(path);  // expect-lint: R16
}

std::string LoadManifest(const FakeVfs& vfs, const std::string& path) {
  // Suppressed: manifests are small bounded control files.
  // sidq: allow-raw-read(fixture: bounded control file)
  return vfs.ReadFile(path);
}

}  // namespace fake_store
