#include "persist/snapshot_io.h"

#include <fcntl.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstring>

#include "persist/crc32c.h"
#include "persist/wal.h"  // file-name scans, internal helpers
#include "util/fault_injection.h"

namespace bitruss::persist {

using internal::ErrnoError;
using internal::FsyncDir;
using internal::GetU32;
using internal::GetU64;
using internal::ReadWholeFile;

namespace {

constexpr char kSnapshotMagic[8] = {'B', 'T', 'S', 'N', 'A', 'P', '0', '1'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr const char* kSnapshotPrefix = "snapshot-";
constexpr const char* kSnapshotSuffix = ".snap";
constexpr std::size_t kFileHeaderBytes = 8 + 4 + 8 + 4;

void AppendU32(std::vector<unsigned char>* out, std::uint32_t v) {
  out->push_back(static_cast<unsigned char>(v));
  out->push_back(static_cast<unsigned char>(v >> 8));
  out->push_back(static_cast<unsigned char>(v >> 16));
  out->push_back(static_cast<unsigned char>(v >> 24));
}

void AppendU64(std::vector<unsigned char>* out, std::uint64_t v) {
  AppendU32(out, static_cast<std::uint32_t>(v));
  AppendU32(out, static_cast<std::uint32_t>(v >> 32));
}

void AppendU32Array(std::vector<unsigned char>* out,
                    const std::vector<std::uint32_t>& values) {
  for (const std::uint32_t v : values) AppendU32(out, v);
}

/// Bounds-checked cursor over a parsed payload; Fail() poisons the reader
/// so a single ok() check at the end suffices.
class PayloadReader {
 public:
  PayloadReader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint32_t ReadU32() {
    if (!Need(4)) return 0;
    const std::uint32_t v = GetU32(data_ + off_);
    off_ += 4;
    return v;
  }

  std::uint64_t ReadU64() {
    if (!Need(8)) return 0;
    const std::uint64_t v = GetU64(data_ + off_);
    off_ += 8;
    return v;
  }

  bool ReadU32Array(std::size_t count, std::vector<std::uint32_t>* out) {
    if (!Need(count * 4)) return false;
    out->resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      (*out)[i] = GetU32(data_ + off_);
      off_ += 4;
    }
    return true;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && off_ == size_; }

 private:
  bool Need(std::size_t bytes) {
    if (!ok_ || size_ - off_ < bytes) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const unsigned char* data_;
  std::size_t size_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

std::vector<unsigned char> EncodePayload(const StateSnapshot& snapshot) {
  std::vector<unsigned char> payload;
  payload.reserve(40 + 4 * (snapshot.upper.size() * 4 +
                            snapshot.free_slots.size()));
  AppendU64(&payload, snapshot.applied);
  AppendU32(&payload, snapshot.num_upper);
  AppendU32(&payload, snapshot.num_lower);
  AppendU64(&payload, snapshot.num_butterflies);
  AppendU32(&payload, static_cast<std::uint32_t>(snapshot.upper.size()));
  AppendU32Array(&payload, snapshot.upper);
  AppendU32Array(&payload, snapshot.lower);
  AppendU32Array(&payload, snapshot.support);
  AppendU32Array(&payload, snapshot.phi);
  AppendU32(&payload, static_cast<std::uint32_t>(snapshot.free_slots.size()));
  AppendU32Array(&payload, snapshot.free_slots);
  return payload;
}

Status DecodeFile(const std::vector<unsigned char>& buf,
                  StateSnapshot* out) {
  if (buf.size() < kFileHeaderBytes) {
    return DataLossError("snapshot file shorter than its header");
  }
  if (std::memcmp(buf.data(), kSnapshotMagic, sizeof kSnapshotMagic) != 0) {
    return DataLossError("snapshot magic mismatch");
  }
  if (GetU32(buf.data() + 8) != kFormatVersion) {
    return DataLossError("snapshot format version unsupported");
  }
  const std::uint64_t payload_len = GetU64(buf.data() + 12);
  if (payload_len != buf.size() - kFileHeaderBytes) {
    return DataLossError("snapshot payload length mismatch");
  }
  const unsigned char* payload = buf.data() + kFileHeaderBytes;
  if (Crc32c(payload, payload_len) != GetU32(buf.data() + 20)) {
    return DataLossError("snapshot payload checksum mismatch");
  }

  PayloadReader reader(payload, payload_len);
  out->applied = reader.ReadU64();
  out->num_upper = reader.ReadU32();
  out->num_lower = reader.ReadU32();
  out->num_butterflies = reader.ReadU64();
  const std::uint32_t num_slots = reader.ReadU32();
  bool shape_ok = reader.ReadU32Array(num_slots, &out->upper) &&
                  reader.ReadU32Array(num_slots, &out->lower) &&
                  reader.ReadU32Array(num_slots, &out->support) &&
                  reader.ReadU32Array(num_slots, &out->phi);
  if (shape_ok) {
    const std::uint32_t num_free = reader.ReadU32();
    shape_ok = reader.ReadU32Array(num_free, &out->free_slots);
  }
  if (!shape_ok || !reader.AtEnd()) {
    // CRC passed, so this is a malformed payload (writer bug or a
    // deliberate format attack), not bit rot — still unusable.
    return DataLossError("snapshot payload malformed despite valid checksum");
  }
  return OkStatus();
}

}  // namespace

Status WriteSnapshotFile(const std::string& dir,
                         const StateSnapshot& snapshot) {
  const std::vector<unsigned char> payload = EncodePayload(snapshot);
  std::vector<unsigned char> file;
  file.reserve(kFileHeaderBytes + payload.size());
  file.insert(file.end(), kSnapshotMagic,
              kSnapshotMagic + sizeof kSnapshotMagic);
  AppendU32(&file, kFormatVersion);
  AppendU64(&file, payload.size());
  AppendU32(&file, Crc32c(payload.data(), payload.size()));
  file.insert(file.end(), payload.begin(), payload.end());

  const std::string path =
      StampedPath(dir, kSnapshotPrefix, snapshot.applied, kSnapshotSuffix);
  const std::string tmp_path = path + ".tmp";

  const int fd = ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return ErrnoError("open " + tmp_path);
  Status st =
      BITRUSS_FAULT_WRITE("snapshot.tmp_write", fd, file.data(), file.size());
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoError("fsync " + tmp_path);
  ::close(fd);
  if (!st.ok()) {
    (void)::unlink(tmp_path.c_str());  // best effort; the tmp is garbage
    return st;
  }

  // The rename is the commit point: kill before it and only the invisible
  // .tmp exists; kill after it and the snapshot is fully durable.
  const fault::FaultAction pre_rename =
      BITRUSS_FAULT_POINT("snapshot.pre_rename");
  if (pre_rename != fault::FaultAction::kNone) {
    (void)::unlink(tmp_path.c_str());
    return fault::ActionStatus(pre_rename, "snapshot.pre_rename");
  }
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const Status rename_status = ErrnoError("rename " + tmp_path);
    (void)::unlink(tmp_path.c_str());
    return rename_status;
  }
  Status dir_status = FsyncDir(dir);
  if (!dir_status.ok()) return dir_status;
  BITRUSS_FAULT_POINT_STATUS("snapshot.post_rename");
  return OkStatus();
}

StatusOr<StateSnapshot> LoadNewestSnapshot(const std::string& dir,
                                           int* corrupt_skipped) {
  if (corrupt_skipped != nullptr) *corrupt_skipped = 0;
  std::vector<std::uint64_t> stamps =
      ListStampedFiles(dir, kSnapshotPrefix, kSnapshotSuffix);
  for (auto it = stamps.rbegin(); it != stamps.rend(); ++it) {
    const std::string path =
        StampedPath(dir, kSnapshotPrefix, *it, kSnapshotSuffix);
    std::vector<unsigned char> buf;
    StateSnapshot snapshot;
    Status st = ReadWholeFile(path, &buf);
    if (st.ok()) st = DecodeFile(buf, &snapshot);
    if (st.ok() && snapshot.applied != *it) {
      st = DataLossError("snapshot filename stamp disagrees with payload");
    }
    if (st.ok()) return snapshot;
    if (corrupt_skipped != nullptr) ++*corrupt_skipped;
  }
  return Status(StatusCode::kNotFound,
                "no intact snapshot under " + dir);
}

int RetainSnapshots(const std::string& dir, std::uint64_t previous,
                    std::uint64_t current) {
  int removed = 0;
  for (const std::uint64_t stamp :
       ListStampedFiles(dir, kSnapshotPrefix, kSnapshotSuffix)) {
    if (stamp == previous || stamp == current) continue;
    const std::string path =
        StampedPath(dir, kSnapshotPrefix, stamp, kSnapshotSuffix);
    if (::unlink(path.c_str()) == 0) ++removed;
  }
  return removed;
}

bool HoldsDurableState(const std::string& dir) {
  return !ListStampedFiles(dir, kSnapshotPrefix, kSnapshotSuffix).empty() ||
         !ListWalSegments(dir).empty();
}

}  // namespace bitruss::persist
