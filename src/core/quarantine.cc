#include "core/quarantine.h"

#include <algorithm>

namespace sidq {

const char* QuarantineReasonName(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kUnknownSensor:
      return "unknown_sensor";
    case QuarantineReason::kNonFinite:
      return "non_finite";
    case QuarantineReason::kLate:
      return "late";
    case QuarantineReason::kDuplicate:
      return "duplicate";
    case QuarantineReason::kOutOfRange:
      return "out_of_range";
    case QuarantineReason::kWindowOverflow:
      return "window_overflow";
    case QuarantineReason::kOutlier:
      return "outlier";
    case QuarantineReason::kIngestFault:
      return "ingest_fault";
    case QuarantineReason::kWindowFault:
      return "window_fault";
    case QuarantineReason::kStoreCorruptBlock:
      return "store_corrupt_block";
    case QuarantineReason::kStoreTornTail:
      return "store_torn_tail";
  }
  return "unknown";
}

std::map<std::string, int64_t> QuarantineLedger::CountsByReason() const {
  std::map<std::string, int64_t> counts;
  for (const QuarantineEntry& e : entries_) {
    ++counts[QuarantineReasonName(e.reason)];
  }
  return counts;
}

void QuarantineLedger::Canonicalize() {
  std::sort(entries_.begin(), entries_.end(),
            [](const QuarantineEntry& a, const QuarantineEntry& b) {
              return a.seq < b.seq;
            });
}

void QuarantineLedger::Merge(const QuarantineLedger& other) {
  entries_.insert(entries_.end(), other.entries_.begin(),
                  other.entries_.end());
}

}  // namespace sidq
