#pragma once

// Shared table-printing helpers for the experiment harness. Every bench
// binary regenerates one experiment from DESIGN.md and prints it as a
// markdown table so EXPERIMENTS.md can quote the output verbatim.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace sidq {
namespace bench {

// A minimal markdown table writer: set headers, add rows of formatted
// cells, print.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    PrintRow(headers_);
    std::vector<std::string> rule;
    rule.reserve(headers_.size());
    for (const auto& h : headers_) {
      rule.push_back(std::string(std::max<size_t>(3, h.size()), '-'));
    }
    PrintRow(rule);
    for (const auto& row : rows_) PrintRow(row);
    std::printf("\n");
  }

 private:
  void PrintRow(const std::vector<std::string>& cells) const {
    std::printf("|");
    for (size_t i = 0; i < cells.size(); ++i) {
      const size_t width =
          i < headers_.size() ? std::max(headers_[i].size(), size_t{3}) : 3;
      std::printf(" %-*s |", static_cast<int>(width), cells[i].c_str());
    }
    std::printf("\n");
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

inline std::string F1(double v) { return Fmt("%.1f", v); }
inline std::string F2(double v) { return Fmt("%.2f", v); }
inline std::string F3(double v) { return Fmt("%.3f", v); }
inline std::string FInt(double v) { return Fmt("%.0f", v); }

// The host the numbers were recorded on ("model name" of /proc/cpuinfo).
inline std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t start = line.find_first_not_of(" \t", line.find(':') + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

inline void Banner(const char* experiment, const char* title,
                   const char* claim) {
  std::printf("== %s: %s ==\n", experiment, title);
  std::printf("paper claim: %s\n\n", claim);
}

}  // namespace bench
}  // namespace sidq
