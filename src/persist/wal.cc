#include "persist/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "persist/crc32c.h"
#include "util/fault_injection.h"

namespace bitruss::persist {

namespace internal {

std::uint32_t GetU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t GetU64(const unsigned char* p) {
  return static_cast<std::uint64_t>(GetU32(p)) |
         (static_cast<std::uint64_t>(GetU32(p + 4)) << 32);
}

Status ErrnoError(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

Status WriteFully(int fd, const unsigned char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write");
    }
    if (n == 0) return InternalError("write: zero-byte progress");
    done += static_cast<std::size_t>(n);
  }
  return OkStatus();
}

Status FaultedWrite(const char* point, int fd, const unsigned char* data,
                    std::size_t size) {
  const fault::FaultAction action = BITRUSS_FAULT_POINT(point);
  if (action == fault::FaultAction::kTornWrite) {
    // The canonical torn-record crash: persist a strict prefix, die.
    (void)WriteFully(fd, data, fault::TornKeepBytes(point, size));
    (void)::fsync(fd);  // make the torn prefix visible
    fault::KillNow();
  }
  if (action != fault::FaultAction::kNone) {
    return fault::ActionStatus(action, point);
  }
  return WriteFully(fd, data, size);
}

Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoError("open dir " + dir);
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved_errno;
    return ErrnoError("fsync dir " + dir);
  }
  return OkStatus();
}

Status ReadWholeFile(const std::string& path, std::vector<unsigned char>* out,
                     std::size_t max_bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoError("open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status status = ErrnoError("fstat " + path);
    ::close(fd);
    return status;
  }
  out->resize(std::min(static_cast<std::size_t>(st.st_size), max_bytes));
  std::size_t done = 0;
  while (done < out->size()) {
    const ssize_t n = ::read(fd, out->data() + done, out->size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = ErrnoError("read " + path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;  // truncated under us; parse what we got
    done += static_cast<std::size_t>(n);
  }
  out->resize(done);
  ::close(fd);
  return OkStatus();
}

}  // namespace internal

using internal::ErrnoError;
using internal::FsyncDir;
using internal::GetU32;
using internal::GetU64;
using internal::ReadWholeFile;
using internal::WriteFully;

namespace {

constexpr char kSegmentMagic[8] = {'B', 'T', 'W', 'A', 'L', '0', '0', '1'};
constexpr const char* kSegmentPrefix = "wal-";
constexpr const char* kSegmentSuffix = ".seg";

// Explicit little-endian byte shuffles so files are portable across hosts.
void PutU32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

void PutU64(unsigned char* p, std::uint64_t v) {
  PutU32(p, static_cast<std::uint32_t>(v));
  PutU32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint64_t PageBytes() {
  static const auto bytes = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  return bytes;
}

/// Bytes of the active segment kept mapped: kWalWindowBytes, or two pages
/// where a page is larger, so a record always fits past a page-aligned
/// window start.
std::uint64_t WindowBytes() {
  static const std::uint64_t bytes =
      std::max<std::uint64_t>(kWalWindowBytes, 2 * PageBytes());
  return bytes;
}

std::uint64_t PageFloor(std::uint64_t offset) {
  return offset / PageBytes() * PageBytes();
}

/// Encodes the 25-byte on-disk record: length, payload CRC, payload.
void EncodeRecord(const WalRecord& record,
                  unsigned char out[kWalRecordBytes]) {
  unsigned char* payload = out + 8;
  PutU64(payload, record.seq);
  payload[8] = record.kind;
  PutU32(payload + 9, record.upper_local);
  PutU32(payload + 13, record.lower_local);
  PutU32(out, static_cast<std::uint32_t>(kWalRecordPayloadBytes));
  PutU32(out + 4, Crc32c(payload, kWalRecordPayloadBytes));
}

}  // namespace

std::string StampedPath(const std::string& dir, const std::string& prefix,
                        std::uint64_t value, const std::string& suffix) {
  char stamp[17];
  std::snprintf(stamp, sizeof stamp, "%016llx",
                static_cast<unsigned long long>(value));
  return dir + "/" + prefix + stamp + suffix;
}

std::vector<std::uint64_t> ListStampedFiles(const std::string& dir,
                                            const std::string& prefix,
                                            const std::string& suffix) {
  std::vector<std::uint64_t> values;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return values;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() != prefix.size() + 16 + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(prefix.size() + 16, suffix.size(), suffix) != 0) continue;
    const std::string stamp = name.substr(prefix.size(), 16);
    if (stamp.find_first_not_of("0123456789abcdef") == std::string::npos) {
      values.push_back(std::stoull(stamp, nullptr, 16));
    }
  }
  ::closedir(d);
  std::sort(values.begin(), values.end());
  return values;
}

std::vector<std::uint64_t> ListWalSegments(const std::string& dir) {
  return ListStampedFiles(dir, kSegmentPrefix, kSegmentSuffix);
}

Status ReplayWal(const std::string& dir, std::uint64_t after_seq,
                 const std::function<Status(const WalRecord&)>& fn,
                 WalReplayStats* stats_out, bool repair_torn_tail) {
  WalReplayStats local_stats;
  WalReplayStats* stats = stats_out != nullptr ? stats_out : &local_stats;
  *stats = WalReplayStats{};

  const std::vector<std::uint64_t> segment_seqs = ListWalSegments(dir);
  if (segment_seqs.empty()) return OkStatus();

  std::uint64_t expected = 0;  // next raw seq across segments; 0 = unset
  for (std::size_t i = 0; i < segment_seqs.size(); ++i) {
    const bool is_final = (i + 1 == segment_seqs.size());
    // A segment whose successor starts at or below after_seq + 1 holds only
    // records the caller already has: its header is checked, its records
    // are skipped unread.
    const bool covered = !is_final && segment_seqs[i + 1] <= after_seq + 1;
    const std::string path =
        StampedPath(dir, kSegmentPrefix, segment_seqs[i], kSegmentSuffix);
    std::vector<unsigned char> buf;
    Status read_status = ReadWholeFile(
        path, &buf, covered ? kWalSegmentHeaderBytes : SIZE_MAX);
    if (!read_status.ok()) return read_status;

    const bool header_ok =
        buf.size() >= kWalSegmentHeaderBytes &&
        std::memcmp(buf.data(), kSegmentMagic, sizeof kSegmentMagic) == 0 &&
        GetU32(buf.data() + 16) == Crc32c(buf.data() + 8, 8) &&
        GetU64(buf.data() + 8) == segment_seqs[i];
    if (!header_ok) {
      if (!is_final) {
        return DataLossError("WAL segment " + path +
                             " has a corrupt header mid-log");
      }
      // A torn CREATION of the final segment: rotation died before the
      // header landed.  Nothing in it was ever acknowledged as durable.
      ++stats->torn_records_discarded;
      if (repair_torn_tail && ::unlink(path.c_str()) != 0) {
        return ErrnoError("unlink torn segment " + path);
      }
      break;
    }

    const std::uint64_t first_seq = segment_seqs[i];
    if (expected != 0 && first_seq != expected) {
      return DataLossError(
          "WAL sequence gap: segment " + path + " starts at seq " +
          std::to_string(first_seq) + ", expected " + std::to_string(expected));
    }
    if (expected == 0 && first_seq > after_seq + 1) {
      return DataLossError("WAL begins at seq " + std::to_string(first_seq) +
                           " but records after seq " +
                           std::to_string(after_seq) + " are needed");
    }
    if (covered) {
      expected = segment_seqs[i + 1];
      continue;
    }

    std::size_t off = kWalSegmentHeaderBytes;
    std::uint64_t next = first_seq;
    bool cut_tail = false;  // bytes from `off` on are no records
    while (off < buf.size()) {
      const std::size_t remaining = buf.size() - off;
      bool valid = remaining >= 8;
      std::uint32_t len = 0;
      if (valid) {
        len = GetU32(buf.data() + off);
        valid = (len == kWalRecordPayloadBytes) && (remaining - 8 >= len);
      }
      if (valid) {
        valid = Crc32c(buf.data() + off + 8, len) == GetU32(buf.data() + off + 4);
      }
      if (!valid) {
        // Zeros from a record boundary to the end are the preallocated
        // space a crash leaves behind, the segment's clean end: a record's
        // length prefix is never 0.
        cut_tail = true;
        if (std::all_of(buf.begin() + static_cast<std::ptrdiff_t>(off),
                        buf.end(), [](unsigned char b) { return b == 0; })) {
          break;
        }
        if (!is_final) {
          return DataLossError("WAL segment " + path +
                               " has a corrupt record mid-log at offset " +
                               std::to_string(off));
        }
        // Torn tail of the final segment: discard from the first bad byte.
        stats->torn_records_discarded +=
            (remaining + kWalRecordBytes - 1) / kWalRecordBytes;
        break;
      }
      const unsigned char* payload = buf.data() + off + 8;
      WalRecord record;
      record.seq = GetU64(payload);
      record.kind = payload[8];
      record.upper_local = GetU32(payload + 9);
      record.lower_local = GetU32(payload + 13);
      // A CRC-valid record with the wrong sequence cannot be a torn write;
      // acknowledged records are missing from the log.
      if (record.seq != next) {
        return DataLossError("WAL sequence gap in " + path + ": record seq " +
                             std::to_string(record.seq) + ", expected " +
                             std::to_string(next));
      }
      ++next;
      off += 8 + len;
      stats->last_seq = record.seq;
      if (record.seq > after_seq) {
        Status st = fn(record);
        if (!st.ok()) return st;
        ++stats->records_replayed;
      }
    }
    expected = next;
    if (cut_tail && repair_torn_tail) {
      if (::truncate(path.c_str(), static_cast<off_t>(off)) != 0) {
        return ErrnoError("truncate the tail of " + path);
      }
    }
  }
  return OkStatus();
}

WalWriter::WalWriter(std::string dir, std::uint64_t next_seq,
                     WalOptions options)
    : dir_(std::move(dir)), options_(options), next_seq_(next_seq) {}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& dir,
                                                     std::uint64_t next_seq,
                                                     WalOptions options) {
  if (next_seq == 0) {
    return InvalidArgumentError("WAL sequences start at 1");
  }
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return ErrnoError("mkdir " + dir);
  }
  BITRUSS_FAULT_POINT_STATUS("wal.open");
  std::vector<std::uint64_t> kept = ListWalSegments(dir);
  if (!kept.empty() && kept.back() > next_seq) {
    return FailedPreconditionError("WAL directory " + dir +
                                   " holds a segment past the next seq");
  }
  if (!kept.empty() && kept.back() == next_seq) kept.pop_back();  // replaced
  std::unique_ptr<WalWriter> writer(new WalWriter(dir, next_seq, options));
  {
    MutexLock lock(writer->mu_);
    writer->segment_first_seqs_ = std::move(kept);
    Status st = writer->OpenFreshSegmentLocked(next_seq);
    if (!st.ok()) return st;
  }
  return writer;
}

WalWriter::~WalWriter() {
  MutexLock lock(mu_);
  if (fd_ >= 0) {
    // Best effort; shutdown paths Sync() explicitly.
    (void)SealLocked(/*sync=*/failure_.ok() &&
                     options_.fsync_policy != FsyncPolicy::kOsBuffered);
  }
}

Status WalWriter::OpenFreshSegmentLocked(std::uint64_t first_seq) {
  const std::string path =
      StampedPath(dir_, kSegmentPrefix, first_seq, kSegmentSuffix);
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (fd < 0) return ErrnoError("open " + path);
  unsigned char header[kWalSegmentHeaderBytes];
  std::memcpy(header, kSegmentMagic, sizeof kSegmentMagic);
  PutU64(header + 8, first_seq);
  PutU32(header + 16, Crc32c(header + 8, 8));
  Status st = WriteFully(fd, header, sizeof header);
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoError("fsync " + path);
  if (st.ok()) {
    ++fsyncs_;
    st = FsyncDir(dir_);
  }
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  fd_ = fd;
  end_ = sizeof header;
  segment_first_seqs_.push_back(first_seq);
  return SlideWindowLocked();
}

Status WalWriter::SlideWindowLocked() {
  BITRUSS_FAULT_POINT_STATUS("wal.grow");
  const std::uint64_t offset = PageFloor(end_);
  // Reserve the blocks before mapping them: a full disk fails here, as a
  // Status, never as SIGBUS on a store into the window.  The part that
  // overlaps the previous window is already reserved; that is a no-op.
  const int rc = ::posix_fallocate(fd_, static_cast<off_t>(offset),
                                   static_cast<off_t>(WindowBytes()));
  if (rc != 0) {
    errno = rc;
    return ErrnoError("preallocate wal segment");
  }
  if (map_ != nullptr) ::munmap(map_, WindowBytes());
  map_ = nullptr;
  void* map = ::mmap(nullptr, WindowBytes(), PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd_, static_cast<off_t>(offset));
  if (map == MAP_FAILED) return ErrnoError("mmap wal segment");
  map_ = static_cast<unsigned char*>(map);
  map_offset_ = offset;
  return OkStatus();
}

Status WalWriter::SealLocked(bool sync) {
  if (map_ != nullptr) ::munmap(map_, WindowBytes());
  map_ = nullptr;
  Status st = OkStatus();
  if (::ftruncate(fd_, static_cast<off_t>(end_)) != 0) {
    st = ErrnoError("trim wal segment");
  } else if (sync) {
    if (::fsync(fd_) == 0) {
      ++fsyncs_;
    } else {
      st = ErrnoError("fsync wal segment");
    }
  }
  ::close(fd_);
  fd_ = -1;
  return st;
}

Status WalWriter::FencedLocked(const std::string& what) const {
  return FailedPreconditionError("WAL writer failed earlier (" +
                                 failure_.message() + "); " + what +
                                 " are fenced off");
}

Status WalWriter::Append(const WalRecord& record) {
  MutexLock lock(mu_);
  if (!failure_.ok()) return FencedLocked("appends");
  if (record.seq != next_seq_) {
    return InvalidArgumentError("WAL append out of order: got seq " +
                                std::to_string(record.seq) + ", expected " +
                                std::to_string(next_seq_));
  }
  Status st = AppendLocked(record);
  // Latch on ANY failure: the file may hold a torn prefix, and a later
  // append landing after it would turn a benign torn tail into
  // unrecoverable mid-log corruption.
  if (!st.ok()) failure_ = st;
  return st;
}

Status WalWriter::AppendLocked(const WalRecord& record) {
  if (end_ + kWalRecordBytes > map_offset_ + WindowBytes()) {
    Status st = SlideWindowLocked();
    if (!st.ok()) return st;
  }
  unsigned char buf[kWalRecordBytes];
  EncodeRecord(record, buf);
  unsigned char* dst = map_ + (end_ - map_offset_);
  const fault::FaultAction action = BITRUSS_FAULT_POINT("wal.append");
  if (action == fault::FaultAction::kTornWrite) {
    // The canonical torn-record crash: persist a strict prefix, die.
    const std::size_t keep = fault::TornKeepBytes("wal.append", sizeof buf);
    std::memcpy(dst, buf, keep);
    (void)::fdatasync(fd_);
    fault::KillNow();
  }
  if (action != fault::FaultAction::kNone) {
    return fault::ActionStatus(action, "wal.append");
  }
  std::memcpy(dst, buf, sizeof buf);
  end_ += sizeof buf;
  bytes_appended_ += sizeof buf;
  ++next_seq_;
  if (options_.fsync_policy == FsyncPolicy::kEveryRecord) {
    return SyncLocked();
  }
  return OkStatus();
}

Status WalWriter::Sync() {
  MutexLock lock(mu_);
  if (!failure_.ok()) return FencedLocked("syncs");
  Status st = SyncLocked();
  if (!st.ok()) failure_ = st;
  return st;
}

Status WalWriter::SyncLocked() {
  BITRUSS_FAULT_POINT_STATUS("wal.pre_fsync");
  // fdatasync writes back the pages dirtied through the mapping too, mapped
  // or already slid past.
  if (::fdatasync(fd_) != 0) return ErrnoError("fdatasync wal segment");
  ++fsyncs_;
  BITRUSS_FAULT_POINT_STATUS("wal.post_fsync");
  return OkStatus();
}

Status WalWriter::Rotate() {
  MutexLock lock(mu_);
  if (!failure_.ok()) return FencedLocked("rotations");
  if (segment_first_seqs_.back() == next_seq_) return OkStatus();  // empty
  Status st = RotateLocked();
  if (!st.ok()) failure_ = st;
  return st;
}

Status WalWriter::RotateLocked() {
  Status st = SealLocked(/*sync=*/true);
  if (!st.ok()) return st;
  BITRUSS_FAULT_POINT_STATUS("wal.rotate");
  return OpenFreshSegmentLocked(next_seq_);
}

StatusOr<int> WalWriter::TruncateThrough(std::uint64_t seq_inclusive) {
  MutexLock lock(mu_);
  if (!failure_.ok()) return FencedLocked("truncations");
  BITRUSS_FAULT_POINT_STATUS("wal.truncate");
  // A segment is removable when the NEXT one starts at or below
  // seq_inclusive + 1 (its own last record is then <= seq_inclusive); the
  // active segment always stays.  Failures here do NOT latch failure_ — an
  // unremoved segment is just replayed-and-skipped on the next recovery.
  int removed = 0;
  while (segment_first_seqs_.size() >= 2 &&
         segment_first_seqs_[1] <= seq_inclusive + 1) {
    const std::string path = StampedPath(dir_, kSegmentPrefix,
                                         segment_first_seqs_.front(),
                                         kSegmentSuffix);
    if (::unlink(path.c_str()) != 0) return ErrnoError("unlink " + path);
    segment_first_seqs_.erase(segment_first_seqs_.begin());
    ++removed;
  }
  if (removed > 0) {
    Status st = FsyncDir(dir_);
    if (!st.ok()) return st;
  }
  return removed;
}

std::uint64_t WalWriter::NextSeq() const {
  MutexLock lock(mu_);
  return next_seq_;
}

std::uint64_t WalWriter::BytesAppended() const {
  MutexLock lock(mu_);
  return bytes_appended_;
}

std::uint64_t WalWriter::Fsyncs() const {
  MutexLock lock(mu_);
  return fsyncs_;
}

}  // namespace bitruss::persist
