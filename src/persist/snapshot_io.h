// Durable point-in-time snapshots of the dynamic bitruss state.
//
// A snapshot pairs with the WAL (wal.h): it captures the full in-memory
// state — graph slots, support, phi, and the free-slot stack — as of a
// WAL sequence (`applied`), so recovery loads the newest intact snapshot
// and replays only the WAL records after it; the serving layer keeps the
// previous snapshot too (RetainSnapshots), with its WAL suffix.  Files:
//
//   <dir>/snapshot-%016llx.snap    (hex value = applied sequence)
//
//   file    = magic "BTSNAP01" | u32 format_version (=1)
//           | u64 payload_len | u32 crc32c(payload) | payload
//   payload = u64 applied | u32 num_upper | u32 num_lower
//           | u64 num_butterflies | u32 num_slots
//           | u32 upper[num_slots] | u32 lower[num_slots]
//           | u32 support[num_slots] | u32 phi[num_slots]
//           | u32 num_free | u32 free_slots[num_free]
//
// Integers are little-endian.  free_slots is serialized IN STACK ORDER:
// slot reuse after restore then assigns the same slots the original
// process would have, which keeps recovered state slot-for-slot
// comparable with an oracle replay.
//
// Writes are atomic: payload goes to a ".tmp" sibling, is fsynced, and is
// renamed into place (then the directory is fsynced) — a crash leaves
// either the old set of snapshots or the old set plus one complete new
// file, never a half-written visible snapshot.  Reads verify magic,
// version, length, and checksum; LoadNewestSnapshot skips damaged files
// and falls back to older ones.  Fault points: snapshot.tmp_write,
// snapshot.pre_rename, snapshot.post_rename.

#ifndef BITRUSS_PERSIST_SNAPSHOT_IO_H_
#define BITRUSS_PERSIST_SNAPSHOT_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace bitruss::persist {

/// On-disk image of the dynamic state.  Slot arrays are parallel; a free
/// slot carries the graph's invalid-vertex marker in upper[] and lower[].
struct StateSnapshot {
  std::uint64_t applied = 0;  ///< WAL sequence this state reflects
  std::uint32_t num_upper = 0;
  std::uint32_t num_lower = 0;
  std::uint64_t num_butterflies = 0;
  std::vector<std::uint32_t> upper;
  std::vector<std::uint32_t> lower;
  std::vector<std::uint32_t> support;
  std::vector<std::uint32_t> phi;
  /// Free-slot stack, bottom first (the original push order).
  std::vector<std::uint32_t> free_slots;
};

/// Atomically writes `snapshot` as <dir>/snapshot-<applied>.snap (see the
/// header comment for the protocol).  The directory must already exist.
[[nodiscard]] Status WriteSnapshotFile(const std::string& dir,
                                       const StateSnapshot& snapshot);

/// Loads the newest (highest-applied) intact snapshot under `dir`,
/// skipping corrupt or unreadable files in favor of older ones
/// (`corrupt_skipped`, when given, counts how many were passed over).
/// kNotFound when the directory has no intact snapshot at all.
[[nodiscard]] StatusOr<StateSnapshot> LoadNewestSnapshot(
    const std::string& dir, int* corrupt_skipped = nullptr);

/// Deletes every snapshot file except those stamped `previous` and
/// `current` (best effort: unlink errors are swallowed — an extra snapshot
/// is harmless).  Returns the number removed.
int RetainSnapshots(const std::string& dir, std::uint64_t previous,
                    std::uint64_t current);

/// True when `dir` holds any WAL segment or snapshot file.
bool HoldsDurableState(const std::string& dir);

}  // namespace bitruss::persist

#endif  // BITRUSS_PERSIST_SNAPSHOT_IO_H_
