// Deterministic fault injection for crash-tolerance testing.
//
// A FAULT POINT is a named location in production code (all current points
// live in the persistence layer: "wal.append", "snapshot.pre_rename", ...)
// where a test can arm a failure.  Untouched, a point is one relaxed
// atomic load; armed, it can
//
//   kError      make the call site return an injected error Status
//   kEnospc     same, with an ENOSPC-flavored message (disk-full drills)
//   kTornWrite  make the call site persist only a seeded prefix of the
//               bytes it was about to write, then die by SIGKILL — the
//               canonical torn-record crash
//   kKill       raise SIGKILL at the point, before any side effect
//
// Everything is deterministic: a point fires on exactly the
// (skip_first+1)-th hit, and torn-write prefix lengths derive from the
// armed seed plus the hit index, so a failing crash test replays
// identically.  kKill/kTornWrite are for FORKED children (the test forks,
// the child arms and dies, the parent recovers the on-disk state).
//
// Call sites use the macros, which compile to constant no-ops when the
// build disables BITRUSS_FAULT_INJECTION_ENABLED (CMake option
// BITRUSS_FAULT_INJECTION, default ON so the tier-1 crash suite runs; the
// sanitizers CI job build-checks the OFF configuration):
//
//   BITRUSS_FAULT_POINT("snapshot.pre_rename")          // want the action
//   BITRUSS_FAULT_POINT_STATUS("wal.pre_fsync");        // error-or-nothing
//   BITRUSS_FAULT_WRITE("snapshot.tmp_write", fd, buf, size)
//                                                       // a write that can
//                                                       // fail or tear
//
// BITRUSS_FAULT_WRITE lives in persist/wal.h, next to the write it wraps;
// with injection compiled out it is a plain write.
//
// tools/lint.py additionally requires every point name declared in src/ to
// appear in tests/, so no point can exist without crash coverage.

#ifndef BITRUSS_UTIL_FAULT_INJECTION_H_
#define BITRUSS_UTIL_FAULT_INJECTION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace bitruss::fault {

enum class FaultAction : std::uint8_t {
  kNone = 0,
  kError,
  kEnospc,
  kTornWrite,
  kKill,
};

struct ArmSpec {
  FaultAction action = FaultAction::kNone;
  /// The point fires on hit skip_first + 1 (and on every later hit unless
  /// one_shot); earlier hits pass through untouched.
  std::uint64_t skip_first = 0;
  /// Fire once, then behave as if disarmed (hits keep being counted).
  bool one_shot = false;
  /// Seed for torn-write prefix derivation; same seed + same hit index =>
  /// same prefix length.
  std::uint64_t seed = 1;
};

/// Arms `point` (replacing any previous spec and resetting its hit count).
void Arm(const std::string& point, const ArmSpec& spec);
/// Disarms everything and clears all hit counts.
void ResetAll();
/// Hits recorded for `point` since it was last armed (0 when never armed;
/// counting only happens while the point is armed — the disarmed fast path
/// is a single relaxed load and touches no table).
std::uint64_t HitCount(const std::string& point);

/// The runtime entry the macros call.  Returns the armed action when the
/// point fires, kNone otherwise.  kKill never returns: it raises SIGKILL
/// here so every call site gets crash coverage without handling it.
FaultAction Hit(const char* point);

/// For a call site that got kTornWrite from Hit(): how many of `full_size`
/// bytes to persist before dying (a strict prefix, >= 1 byte short when
/// full_size > 0).  Deterministic in (armed seed, hit index).
std::size_t TornKeepBytes(const char* point, std::size_t full_size);

/// Raises SIGKILL (abort() as a last resort).  Call sites use this after
/// persisting a torn prefix.
[[noreturn]] void KillNow();

/// The one action -> Status mapping of every injected error: kError,
/// kEnospc and kTornWrite map to a non-OK Status naming the point
/// (kTornWrite degenerates to kError here), kNone to OK.
[[nodiscard]] Status ActionStatus(FaultAction action, const char* point);

/// Status-flavored point for call sites with nothing torn to write:
/// ActionStatus(Hit(point), point), so kKill dies.
[[nodiscard]] Status InjectedStatus(const char* point);

}  // namespace bitruss::fault

#if defined(BITRUSS_FAULT_INJECTION_ENABLED)
#define BITRUSS_FAULT_POINT(name) (::bitruss::fault::Hit(name))
#define BITRUSS_FAULT_POINT_STATUS(name)                         \
  do {                                                           \
    ::bitruss::Status fault_status_ =                            \
        ::bitruss::fault::InjectedStatus(name);                  \
    if (!fault_status_.ok()) return fault_status_;               \
  } while (0)
#else
#define BITRUSS_FAULT_POINT(name) (::bitruss::fault::FaultAction::kNone)
#define BITRUSS_FAULT_POINT_STATUS(name) \
  do {                                   \
  } while (0)
#endif

#endif  // BITRUSS_UTIL_FAULT_INJECTION_H_
