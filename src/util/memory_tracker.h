// Lightweight memory accounting helpers.  Index structures report their own
// footprint via `MemoryBytes()`; this header only hosts the shared unit
// conversions and best-effort process-level probes for benches and the
// observability layer's process gauges.

#ifndef BITRUSS_UTIL_MEMORY_TRACKER_H_
#define BITRUSS_UTIL_MEMORY_TRACKER_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace bitruss {

inline double BytesToMiB(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// System page size in bytes; 4096 where sysconf is unavailable or fails.
inline std::uint64_t PageSizeBytes() {
  static const std::uint64_t page_size = [] {
#if defined(_SC_PAGESIZE)
    const long size = ::sysconf(_SC_PAGESIZE);
    if (size > 0) return static_cast<std::uint64_t>(size);
#endif
    return static_cast<std::uint64_t>(4096);
  }();
  return page_size;
}

/// Current resident set size in bytes, or 0 where /proc is unavailable.
/// Best-effort: used only for bench reporting and the process RSS gauge,
/// never for decisions.
inline std::uint64_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages_total = 0, pages_resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &pages_total, &pages_resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::uint64_t>(pages_resident) * PageSizeBytes();
}

/// Peak resident set size (`VmHWM` from /proc/self/status) in bytes, or 0
/// where unavailable.  The kernel reports the high-water mark in kB.
inline std::uint64_t PeakRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t peak = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      peak = std::strtoull(line + 6, nullptr, 10) * 1024ull;
      break;
    }
  }
  std::fclose(f);
  return peak;
}

}  // namespace bitruss

#endif  // BITRUSS_UTIL_MEMORY_TRACKER_H_
