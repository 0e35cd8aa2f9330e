// Write-ahead log of accepted edge updates.
//
// The serving layer appends one record per ACCEPTED Submit() — before the
// update is acknowledged to the caller — so a crash can lose at most the
// unacknowledged tail.  Records are length-prefixed and CRC32C-checksummed
// in segment files, rotated at each durable snapshot (Rotate):
//
//   <dir>/wal-%016llx.seg        (hex value = first sequence in the file)
//
//   segment  = header record*
//   header   = magic "BTWAL001" | u64 first_seq | u32 crc32c(first_seq)
//   record   = u32 payload_len | u32 crc32c(payload) | payload
//   payload  = u64 seq | u8 kind (0 insert, 1 delete) | u32 upper_local
//            | u32 lower_local                                (17 bytes)
//
// Sequence numbers are the service's submission ordinals, strictly +1
// across segment boundaries.  Integers are little-endian.
//
// Appending makes no syscall.  The active segment is preallocated
// (posix_fallocate) ahead of its last record, and one kWalWindowBytes
// window of it is mapped MAP_SHARED; Append copies the encoded record into
// the window, which slides forward to a page-aligned offset when the next
// record does not fit.  A copied record is in the page cache, exactly as
// after a write(), so it survives process death.  The blocks are reserved
// before they are mapped: a full disk fails at that growth (fault point
// wal.grow) with ENOSPC, the only place it can surface for appends, and
// never as SIGBUS on a store.  Rotate and the destructor seal the segment:
// they trim the preallocated tail (ftruncate) and fsync, so a sealed
// segment is exactly header + records.
//
// Durability policy (FsyncPolicy): every-record syncs inside Append,
// every-publish leaves the sync to the caller's Sync() at its publication
// boundary, os-buffered never syncs (page cache only — survives process
// death but not power loss).  A sync is fdatasync of the segment; it writes
// back the pages the mapping dirtied.
//
// Failure model: once any append, sync or rotation fails — including
// injected faults — the writer latches FAILED and every later call returns
// kFailedPrecondition without touching the file, so a torn partial write
// can never be buried under later appends (which would turn a benign torn
// tail into unrecoverable middle corruption).  That status carries the
// first failure's message, so a caller that only meets the fence still
// reports the cause.  The serving layer reacts by entering read-only
// degraded mode.
//
// Recovery (ReplayWal): replays records with seq > after_seq in order.  A
// segment whose successor starts at or below after_seq + 1 is wholly
// covered: only its header is checked.  Zeros from a record boundary to
// the end of a segment are its clean end, not damage: they are the
// preallocated space a crash leaves in the active segment, and no record
// starts with a zero byte (its length prefix is 17).  An unparsable tail
// of the FINAL segment — short header, short record, checksum mismatch —
// is a TORN WRITE: everything from the first bad byte on is discarded.
// With repair_torn_tail both tails are physically truncated, so the
// segment stays valid once the next writer opens a fresh one after it.
// The same damage anywhere else, or a sequence gap (records lost before a
// zero tail included), is kDataLoss: acknowledged records are missing and
// replay refuses to fabricate state.
// Fault points: wal.open, wal.grow, wal.append, wal.pre_fsync,
// wal.post_fsync, wal.rotate, wal.truncate.

#ifndef BITRUSS_PERSIST_WAL_H_
#define BITRUSS_PERSIST_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/sync.h"

namespace bitruss::persist {

enum class FsyncPolicy : std::uint8_t {
  kEveryRecord,   ///< fsync inside every Append (slowest, zero-loss)
  kEveryPublish,  ///< caller fsyncs at publication boundaries via Sync()
  kOsBuffered,    ///< never fsync (page cache durability only)
};

struct WalOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kEveryPublish;
};

struct WalRecord {
  std::uint64_t seq = 0;  ///< submission ordinal, strictly +1 per record
  std::uint8_t kind = 0;  ///< 0 insert, 1 delete
  std::uint32_t upper_local = 0;
  std::uint32_t lower_local = 0;
};

/// On-disk sizes (fixed in format v1); exposed for tests that build or
/// corrupt files at byte granularity.
inline constexpr std::size_t kWalSegmentHeaderBytes = 8 + 8 + 4;
inline constexpr std::size_t kWalRecordPayloadBytes = 8 + 1 + 4 + 4;
inline constexpr std::size_t kWalRecordBytes = 4 + 4 + kWalRecordPayloadBytes;
/// Bytes of the active segment a WalWriter keeps mapped (two pages where a
/// page is larger).
inline constexpr std::size_t kWalWindowBytes = std::size_t{64} << 10;

struct WalReplayStats {
  std::uint64_t records_replayed = 0;
  /// Records discarded from the torn tail of the final segment (0 or the
  /// count of unparsable trailing byte-runs treated as one torn region).
  std::uint64_t torn_records_discarded = 0;
  /// Highest valid sequence PARSED (0 if none).  Records of a segment the
  /// replay could skip unread (its successor starts at or below
  /// after_seq + 1) are not parsed; records at or below after_seq in the
  /// other segments are validated, counted here, and not handed to `fn`.
  std::uint64_t last_seq = 0;
};

/// Replays every record with seq > after_seq under `dir`, in sequence
/// order, invoking `fn` per record (a non-OK return aborts the replay with
/// that status).  kDataLoss on mid-log corruption or sequence gaps; a torn
/// final tail is discarded silently (counted in stats) and a zero tail is
/// a clean end (not counted); with repair_torn_tail both are physically
/// truncated, so every segment ends at its last record.  An empty/absent
/// directory replays nothing and returns OK.
[[nodiscard]] Status ReplayWal(
    const std::string& dir, std::uint64_t after_seq,
    const std::function<Status(const WalRecord&)>& fn,
    WalReplayStats* stats = nullptr, bool repair_torn_tail = false);

class WalWriter {
 public:
  /// Opens `dir` (created if absent) for appending with `next_seq` as the
  /// sequence of the first future record, starting a fresh segment named
  /// by it beside the segments already there (the log the caller
  /// replayed, which TruncateThrough may delete later).  A segment
  /// starting AT `next_seq` is replaced; one past it is kFailedPrecondition.
  static StatusOr<std::unique_ptr<WalWriter>> Open(const std::string& dir,
                                                   std::uint64_t next_seq,
                                                   WalOptions options);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Appends one record (record.seq must equal NextSeq()) to the active
  /// segment's mapped window; syncs when the policy is kEveryRecord.  No
  /// syscall otherwise, except to slide the window (preallocating ahead).
  /// Thread-safe.  After any failure the writer is latched FAILED and
  /// every call returns kFailedPrecondition (see header comment).
  [[nodiscard]] Status Append(const WalRecord& record);

  /// Syncs the bytes appended since the last sync (the publication
  /// boundary under kEveryPublish).  It syncs whatever the policy: under
  /// kOsBuffered the policy only keeps Append from syncing.
  [[nodiscard]] Status Sync();

  /// Seals the active segment (trim to its last record, fsync) and starts a
  /// fresh one at NextSeq(); does nothing when the active segment holds no
  /// record.
  [[nodiscard]] Status Rotate();

  /// Deletes whole segments every record of which has seq <=
  /// seq_inclusive (the active segment is never deleted).  Returns the
  /// number of segment files removed.
  [[nodiscard]] StatusOr<int> TruncateThrough(std::uint64_t seq_inclusive);

  /// Sequence the next Append must carry.
  std::uint64_t NextSeq() const;
  /// Total record bytes appended through this writer (headers excluded).
  std::uint64_t BytesAppended() const;
  /// Syncs performed by this writer: Append-internal and Sync, plus the
  /// fsyncs of segment headers and seals.
  std::uint64_t Fsyncs() const;

 private:
  WalWriter(std::string dir, std::uint64_t next_seq, WalOptions options);

  /// Opens (creating) the segment whose first record will be `first_seq`
  /// and makes it the append target; fsyncs the directory entry and maps
  /// the first window.
  [[nodiscard]] Status OpenFreshSegmentLocked(std::uint64_t first_seq)
      REQUIRES(mu_);
  /// Maps the window starting at end_'s page, preallocating the file up to
  /// its end first.
  [[nodiscard]] Status SlideWindowLocked() REQUIRES(mu_);
  /// Unmaps the window, trims the segment to end_, fsyncs it when `sync`,
  /// and closes it.
  [[nodiscard]] Status SealLocked(bool sync) REQUIRES(mu_);
  [[nodiscard]] Status AppendLocked(const WalRecord& record) REQUIRES(mu_);
  [[nodiscard]] Status SyncLocked() REQUIRES(mu_);
  [[nodiscard]] Status RotateLocked() REQUIRES(mu_);
  /// The kFailedPrecondition a latched writer returns for `what`, carrying
  /// the first failure's message.
  [[nodiscard]] Status FencedLocked(const std::string& what) const
      REQUIRES(mu_);

  const std::string dir_;
  const WalOptions options_;

  mutable Mutex mu_;
  int fd_ GUARDED_BY(mu_) = -1;
  /// The mapped window: WindowBytes() of the active segment from the
  /// page-aligned file offset map_offset_ (nullptr once sealed).
  unsigned char* map_ GUARDED_BY(mu_) = nullptr;
  std::uint64_t map_offset_ GUARDED_BY(mu_) = 0;
  /// Active-segment file offset of the end of the last record.
  std::uint64_t end_ GUARDED_BY(mu_) = 0;
  /// The first failure; non-OK latches the writer (see header comment).
  Status failure_ GUARDED_BY(mu_);
  std::uint64_t next_seq_ GUARDED_BY(mu_);
  std::uint64_t bytes_appended_ GUARDED_BY(mu_) = 0;
  std::uint64_t fsyncs_ GUARDED_BY(mu_) = 0;
  /// Existing segment first-seqs, ascending; back() is the active one
  /// (empty while it equals next_seq_).
  std::vector<std::uint64_t> segment_first_seqs_ GUARDED_BY(mu_);
};

// Shared with snapshot_io.cc and tests: directory scan for files matching
// `prefix%016llx.suffix`, returning the embedded values ascending.
std::vector<std::uint64_t> ListStampedFiles(const std::string& dir,
                                            const std::string& prefix,
                                            const std::string& suffix);
/// `<dir>/<prefix>%016llx<suffix>` formatting used by the scan above.
std::string StampedPath(const std::string& dir, const std::string& prefix,
                        std::uint64_t value, const std::string& suffix);
/// The first sequences of the WAL segments under `dir`, ascending.
std::vector<std::uint64_t> ListWalSegments(const std::string& dir);

// Helpers shared by wal.cc and snapshot_io.cc: an errno-carrying
// kInternal status, little-endian loads, EINTR-safe whole-buffer write and
// read (a file shrinking mid-read yields what was read; max_bytes caps the
// read at a prefix), directory fsync.
namespace internal {
Status ErrnoError(const std::string& what);
std::uint32_t GetU32(const unsigned char* p);
std::uint64_t GetU64(const unsigned char* p);
Status WriteFully(int fd, const unsigned char* data, std::size_t size);
/// WriteFully behind the fault point `point`: an armed error or ENOSPC
/// returns fault::ActionStatus before writing anything; a torn write
/// persists a seeded strict prefix, fsyncs it and dies by SIGKILL.  Call
/// it through BITRUSS_FAULT_WRITE so tools/lint.py sees the point name.
Status FaultedWrite(const char* point, int fd, const unsigned char* data,
                    std::size_t size);
Status FsyncDir(const std::string& dir);
Status ReadWholeFile(const std::string& path, std::vector<unsigned char>* out,
                     std::size_t max_bytes = SIZE_MAX);
}  // namespace internal

}  // namespace bitruss::persist

#define BITRUSS_FAULT_WRITE(name, fd, data, size) \
  (::bitruss::persist::internal::FaultedWrite(name, fd, data, size))

#endif  // BITRUSS_PERSIST_WAL_H_
