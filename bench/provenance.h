// Hardware and toolchain provenance for the programs that write the
// BENCH_*.json files: every recorded number names the CPU and compiler
// it was measured with.

#ifndef DPHIST_BENCH_PROVENANCE_H_
#define DPHIST_BENCH_PROVENANCE_H_

#include <fstream>
#include <string>

namespace dphist::bench {

/// The host CPU's model name from /proc/cpuinfo, "unknown" elsewhere.
inline std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The compiler that built this binary, with its version.
inline const char* Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace dphist::bench

#endif  // DPHIST_BENCH_PROVENANCE_H_
