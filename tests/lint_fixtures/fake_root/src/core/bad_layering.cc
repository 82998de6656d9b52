// sidq_core links sidq_geometry (CMakeLists.txt next to this file), so
// store headers are a layering inversion; its own and linked headers,
// system headers and directories that are no library stay legal.
#include <string>

#include "core/hash.h"
#include "geometry/point.h"
#include "store/vfs.h"  // expect-lint: R18
#include "third_party/lib.h"
// #include "store/store.h" is prose in a comment, not an include.
/*
#include "store/store.h"
*/

namespace fake_core {

std::string Layering() { return "core"; }

}  // namespace fake_core
