// Tests for the durability subsystem (persist/wal.h, persist/snapshot_io.h,
// util/fault_injection.h) and its serving-layer integration: WAL round
// trips and rotation, torn-tail vs mid-log corruption semantics (including
// a flip and a cut at every byte of a segment and of a snapshot file),
// snapshot atomicity and fallback, the deterministic fault-injection
// harness, and the crash matrix — a forked child is SIGKILLed at every
// fault point and the parent's Recover() must match the recount truth of
// differential_oracle.h over the durable prefix.  Recovery from drained
// and WAL-only directories over the Differential cases is checked in
// test_incremental_bitruss.cc.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "differential_oracle.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/incremental_bitruss.h"
#include "gen/random_bipartite.h"
#include "graph/bipartite_graph.h"
#include "http_test_util.h"
#include "obs/metrics.h"
#include "persist/crc32c.h"
#include "persist/snapshot_io.h"
#include "persist/wal.h"
#include "serve/bitruss_service.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "util/status.h"

// The crash matrix forks children that die by SIGKILL at fault points;
// TSan's default aborts any fork in a threaded process, so opt into the
// fork-then-die pattern (the children never run user threads past exec).
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
extern "C" const char* __tsan_default_options() { return "die_after_fork=0"; }
#endif
#endif

namespace bitruss {
namespace {

using persist::Crc32c;
using persist::FsyncPolicy;
using persist::ListStampedFiles;
using persist::LoadNewestSnapshot;
using persist::ReplayWal;
using persist::RetainSnapshots;
using persist::StampedPath;
using persist::StateSnapshot;
using persist::WalOptions;
using persist::WalRecord;
using persist::WalReplayStats;
using persist::WalWriter;
using persist::WriteSnapshotFile;
using persist::kWalRecordBytes;
using persist::kWalSegmentHeaderBytes;
using persist::kWalWindowBytes;
using differential::ApplyTo;
using differential::ExpectMatches;
using differential::MakeStream;
using differential::Match;
using differential::Oracle;
using differential::TempDir;

// ---------------------------------------------------------------------------
// Filesystem helpers
// ---------------------------------------------------------------------------

std::int64_t FileSize(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::int64_t>(st.st_size)
                                        : -1;
}

void FlipByte(const std::string& path, std::int64_t offset) {
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0) << path << ": " << std::strerror(errno);
  unsigned char byte = 0;
  ASSERT_EQ(::pread(fd, &byte, 1, offset), 1);
  byte ^= 0xFF;
  ASSERT_EQ(::pwrite(fd, &byte, 1, offset), 1);
  ::close(fd);
}

void TruncateFile(const std::string& path, std::int64_t size) {
  ASSERT_EQ(::truncate(path.c_str(), size), 0)
      << path << ": " << std::strerror(errno);
}

// Flips the byte at `offset`, or cuts the file there.
void Damage(const std::string& path, std::int64_t offset, bool flip) {
  flip ? FlipByte(path, offset) : TruncateFile(path, offset);
}

// ---------------------------------------------------------------------------
// A: CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32c, MatchesKnownVectors) {
  // RFC 3720 check value for "123456789".
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  // iSCSI test vector: 32 bytes of zeros.
  const unsigned char zeros[32] = {};
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32c, SeedChainsIncrementalComputes) {
  const std::uint32_t whole = Crc32c("123456789", 9);
  const std::uint32_t chained = Crc32c("56789", 5, Crc32c("1234", 4));
  EXPECT_EQ(chained, whole);
}

// ---------------------------------------------------------------------------
// B: fault-injection harness semantics (no fork needed — direct Hit calls)
// ---------------------------------------------------------------------------

// Disarms everything on scope exit so a failing test cannot poison later
// ones (fault state is process-global).
struct FaultGuard {
  ~FaultGuard() { fault::ResetAll(); }
};

TEST(FaultInjection, SkipFirstFiresOnExactHit) {
  FaultGuard guard;
  fault::Arm("test.point", {fault::FaultAction::kError, /*skip_first=*/2});
  EXPECT_EQ(fault::Hit("test.point"), fault::FaultAction::kNone);
  EXPECT_EQ(fault::Hit("test.point"), fault::FaultAction::kNone);
  EXPECT_EQ(fault::Hit("test.point"), fault::FaultAction::kError);
  // Not one_shot: keeps firing.
  EXPECT_EQ(fault::Hit("test.point"), fault::FaultAction::kError);
  EXPECT_EQ(fault::HitCount("test.point"), 4u);
  // Unarmed points never fire and are not counted.
  EXPECT_EQ(fault::Hit("test.other"), fault::FaultAction::kNone);
  EXPECT_EQ(fault::HitCount("test.other"), 0u);
}

TEST(FaultInjection, OneShotFiresOnceButKeepsCounting) {
  FaultGuard guard;
  fault::ArmSpec spec;
  spec.action = fault::FaultAction::kError;
  spec.skip_first = 1;
  spec.one_shot = true;
  fault::Arm("test.point", spec);
  EXPECT_EQ(fault::Hit("test.point"), fault::FaultAction::kNone);
  EXPECT_EQ(fault::Hit("test.point"), fault::FaultAction::kError);
  EXPECT_EQ(fault::Hit("test.point"), fault::FaultAction::kNone);
  EXPECT_EQ(fault::HitCount("test.point"), 3u);
}

TEST(FaultInjection, TornKeepBytesIsDeterministicStrictPrefix) {
  FaultGuard guard;
  fault::ArmSpec spec;
  spec.action = fault::FaultAction::kTornWrite;
  spec.seed = 42;
  fault::Arm("test.torn", spec);
  EXPECT_EQ(fault::Hit("test.torn"), fault::FaultAction::kTornWrite);
  const std::size_t keep = fault::TornKeepBytes("test.torn", 100);
  EXPECT_LT(keep, 100u);  // strict prefix
  // Stable between hits: same (seed, hit index) => same answer.
  EXPECT_EQ(fault::TornKeepBytes("test.torn", 100), keep);
  // Re-arming with the same seed resets the hit index => same derivation.
  fault::Arm("test.torn", spec);
  EXPECT_EQ(fault::Hit("test.torn"), fault::FaultAction::kTornWrite);
  EXPECT_EQ(fault::TornKeepBytes("test.torn", 100), keep);
}

TEST(FaultInjection, InjectedStatusNamesEnospc) {
  FaultGuard guard;
  fault::Arm("test.full", {fault::FaultAction::kEnospc});
  const Status st = fault::InjectedStatus("test.full");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("ENOSPC"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("test.full"), std::string::npos) << st.message();
  // Unarmed or reset points inject nothing.
  EXPECT_TRUE(fault::InjectedStatus("test.unarmed").ok());
  fault::ResetAll();
  EXPECT_TRUE(fault::InjectedStatus("test.full").ok());
  EXPECT_EQ(fault::HitCount("test.full"), 0u);
}

// ---------------------------------------------------------------------------
// C: WAL append/replay round trip
// ---------------------------------------------------------------------------

WalRecord TestRecord(std::uint64_t seq) {
  WalRecord record;
  record.seq = seq;
  record.kind = static_cast<std::uint8_t>(seq % 2);
  record.upper_local = static_cast<std::uint32_t>(seq * 3 + 1);
  record.lower_local = static_cast<std::uint32_t>(seq * 7 + 2);
  return record;
}

TEST(Wal, AppendThenReplayRoundTrips) {
  TempDir tmp;
  WalOptions options;
  options.fsync_policy = FsyncPolicy::kEveryRecord;
  auto writer_or = WalWriter::Open(tmp.path, 1, options);
  ASSERT_TRUE(writer_or.ok()) << writer_or.status().ToString();
  auto writer = std::move(writer_or).value();

  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    ASSERT_TRUE(writer->Append(TestRecord(seq)).ok()) << seq;
  }
  EXPECT_EQ(writer->NextSeq(), 11u);
  EXPECT_EQ(writer->BytesAppended(), 10 * kWalRecordBytes);
  EXPECT_GE(writer->Fsyncs(), 10u);  // every-record policy

  // An out-of-order append is rejected WITHOUT latching the failed state.
  EXPECT_EQ(writer->Append(TestRecord(13)).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(writer->Append(TestRecord(11)).ok());
  writer.reset();

  std::vector<WalRecord> seen;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(tmp.path, 0,
                        [&](const WalRecord& r) {
                          seen.push_back(r);
                          return OkStatus();
                        },
                        &stats)
                  .ok());
  ASSERT_EQ(seen.size(), 11u);
  for (std::uint64_t i = 0; i < seen.size(); ++i) {
    const WalRecord expected = TestRecord(i + 1);
    EXPECT_EQ(seen[i].seq, expected.seq);
    EXPECT_EQ(seen[i].kind, expected.kind);
    EXPECT_EQ(seen[i].upper_local, expected.upper_local);
    EXPECT_EQ(seen[i].lower_local, expected.lower_local);
  }
  EXPECT_EQ(stats.records_replayed, 11u);
  EXPECT_EQ(stats.last_seq, 11u);
  EXPECT_EQ(stats.torn_records_discarded, 0u);

  // after_seq skips the validated prefix but still parses it (last_seq).
  std::uint64_t tail = 0;
  WalReplayStats tail_stats;
  ASSERT_TRUE(ReplayWal(tmp.path, 7,
                        [&](const WalRecord&) {
                          ++tail;
                          return OkStatus();
                        },
                        &tail_stats)
                  .ok());
  EXPECT_EQ(tail, 4u);
  EXPECT_EQ(tail_stats.records_replayed, 4u);
  EXPECT_EQ(tail_stats.last_seq, 11u);

  // A non-OK callback aborts the replay with that status.
  const Status aborted = ReplayWal(tmp.path, 0, [&](const WalRecord& r) {
    return r.seq == 3 ? InternalError("stop here") : OkStatus();
  });
  EXPECT_EQ(aborted.code(), StatusCode::kInternal);

  // An empty directory replays nothing.
  TempDir empty;
  WalReplayStats none;
  ASSERT_TRUE(ReplayWal(empty.path, 0,
                        [](const WalRecord&) { return OkStatus(); }, &none)
                  .ok());
  EXPECT_EQ(none.records_replayed, 0u);
}

// Appends records first..last, then rotates when `rotate` is set.
void AppendRange(WalWriter& writer, std::uint64_t first, std::uint64_t last,
                 bool rotate) {
  for (std::uint64_t seq = first; seq <= last; ++seq) {
    ASSERT_TRUE(writer.Append(TestRecord(seq)).ok()) << seq;
  }
  if (rotate) {
    ASSERT_TRUE(writer.Rotate().ok());
  }
}

TEST(Wal, OpenAdoptsOlderSegmentsAndRefusesOnePastNextSeq) {
  TempDir tmp;
  {
    auto writer_or = WalWriter::Open(tmp.path, 1, {});
    ASSERT_TRUE(writer_or.ok());
    AppendRange(*writer_or.value(), 1, 3, /*rotate=*/false);
  }
  {
    // Reopening after the log starts a fresh segment beside the old one.
    auto writer_or = WalWriter::Open(tmp.path, 4, {});
    ASSERT_TRUE(writer_or.ok()) << writer_or.status().ToString();
    AppendRange(*writer_or.value(), 4, 5, /*rotate=*/true);
    EXPECT_EQ(ListStampedFiles(tmp.path, "wal-", ".seg"),
              (std::vector<std::uint64_t>{1, 4, 6}));
  }
  // A segment starting past next_seq holds records the caller never
  // replayed: refused, and nothing is created.
  EXPECT_EQ(WalWriter::Open(tmp.path, 5, {}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ListStampedFiles(tmp.path, "wal-", ".seg"),
            (std::vector<std::uint64_t>{1, 4, 6}));

  // The empty segment starting AT next_seq is replaced, and the adopted
  // segments are the writer's to truncate.
  auto writer_or = WalWriter::Open(tmp.path, 6, {});
  ASSERT_TRUE(writer_or.ok()) << writer_or.status().ToString();
  auto writer = std::move(writer_or).value();
  AppendRange(*writer, 6, 7, /*rotate=*/false);
  auto removed = writer->TruncateThrough(3);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value(), 1);
  writer.reset();
  EXPECT_EQ(ListStampedFiles(tmp.path, "wal-", ".seg"),
            (std::vector<std::uint64_t>{4, 6}));
  std::vector<std::uint64_t> seqs;
  ASSERT_TRUE(ReplayWal(tmp.path, 3, [&](const WalRecord& r) {
                seqs.push_back(r.seq);
                return OkStatus();
              }).ok());
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{4, 5, 6, 7}));
}

// ---------------------------------------------------------------------------
// D: segment rotation + truncation
// ---------------------------------------------------------------------------

TEST(Wal, RotatesSegmentsAndTruncatesBehindSnapshots) {
  TempDir tmp;
  WalOptions options;
  options.fsync_policy = FsyncPolicy::kEveryRecord;
  auto writer_or = WalWriter::Open(tmp.path, 1, options);
  ASSERT_TRUE(writer_or.ok());
  auto writer = std::move(writer_or).value();
  AppendRange(*writer, 1, 4, /*rotate=*/true);
  // Rotating an empty segment does nothing.
  const std::uint64_t fsyncs = writer->Fsyncs();
  ASSERT_TRUE(writer->Rotate().ok());
  EXPECT_EQ(writer->Fsyncs(), fsyncs);
  AppendRange(*writer, 5, 8, /*rotate=*/true);
  AppendRange(*writer, 9, 10, /*rotate=*/false);
  EXPECT_EQ(ListStampedFiles(tmp.path, "wal-", ".seg"),
            (std::vector<std::uint64_t>{1, 5, 9}));

  // Truncation removes only whole segments fully covered by the snapshot.
  auto removed = writer->TruncateThrough(4);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value(), 1);
  EXPECT_EQ(ListStampedFiles(tmp.path, "wal-", ".seg"),
            (std::vector<std::uint64_t>{5, 9}));
  removed = writer->TruncateThrough(8);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value(), 1);
  // The active segment is never deleted, no matter the sequence.
  removed = writer->TruncateThrough(100);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value(), 0);
  EXPECT_EQ(ListStampedFiles(tmp.path, "wal-", ".seg"),
            (std::vector<std::uint64_t>{9}));
  writer.reset();

  // Replay from the covered point works; replay from before it must refuse
  // (records 5..8 are gone — that is data loss, not silent re-serve).
  std::uint64_t replayed = 0;
  ASSERT_TRUE(ReplayWal(tmp.path, 8, [&](const WalRecord&) {
                ++replayed;
                return OkStatus();
              }).ok());
  EXPECT_EQ(replayed, 2u);
  const Status gap = ReplayWal(
      tmp.path, 4, [](const WalRecord&) { return OkStatus(); });
  EXPECT_EQ(gap.code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// E: torn tails of the final segment — discarded (and repaired), never fatal
// ---------------------------------------------------------------------------

// Builds one segment of `records` sequential records and returns its path.
std::string BuildSingleSegment(const std::string& dir, int records) {
  WalOptions options;
  options.fsync_policy = FsyncPolicy::kEveryRecord;
  auto writer_or = WalWriter::Open(dir, 1, options);
  EXPECT_TRUE(writer_or.ok());
  auto writer = std::move(writer_or).value();
  for (int seq = 1; seq <= records; ++seq) {
    EXPECT_TRUE(writer->Append(TestRecord(seq)).ok());
  }
  return StampedPath(dir, "wal-", 1, ".seg");
}

struct TornTailCase {
  const char* name;
  // Mutation: truncate to `truncate_to` when >= 0, else flip `flip_offset`.
  std::int64_t truncate_to;
  std::int64_t flip_offset;
  std::uint64_t want_replayed;
  std::int64_t want_repaired_size;  // file size after repair (-1: unlinked)
};

TEST(Wal, TornFinalTailIsDiscardedAndRepaired) {
  const std::int64_t header = kWalSegmentHeaderBytes;  // 20
  const std::int64_t record = kWalRecordBytes;         // 25
  const TornTailCase cases[] = {
      // Mid-record cut in the last record: 4 survive, tail truncated away.
      {"cut_mid_last_record", header + 4 * record + 7, -1, 4,
       header + 4 * record},
      // Cut inside the very first record: nothing survives but the file
      // stays (its header is intact).
      {"cut_mid_first_record", header + 3, -1, 0, header},
      // Bit flip in the final record's payload: checksum fails, torn tail.
      {"flip_last_record_payload", -1, header + 4 * record + 10, 4,
       header + 4 * record},
      // Cut inside the segment HEADER of the only segment: the whole file
      // is unparsable and gets unlinked by repair.
      {"cut_mid_header", header - 10, -1, 0, -1},
  };
  for (const TornTailCase& c : cases) {
    SCOPED_TRACE(c.name);
    TempDir tmp;
    const std::string segment = BuildSingleSegment(tmp.path, 5);
    ASSERT_EQ(FileSize(segment), header + 5 * record);
    if (c.truncate_to >= 0) {
      TruncateFile(segment, c.truncate_to);
    } else {
      FlipByte(segment, c.flip_offset);
    }

    std::uint64_t replayed = 0;
    WalReplayStats stats;
    ASSERT_TRUE(ReplayWal(tmp.path, 0,
                          [&](const WalRecord&) {
                            ++replayed;
                            return OkStatus();
                          },
                          &stats, /*repair_torn_tail=*/true)
                    .ok());
    EXPECT_EQ(replayed, c.want_replayed);
    EXPECT_EQ(stats.records_replayed, c.want_replayed);
    EXPECT_GE(stats.torn_records_discarded, 1u);
    if (c.want_repaired_size < 0) {
      EXPECT_TRUE(ListStampedFiles(tmp.path, "wal-", ".seg").empty());
    } else {
      EXPECT_EQ(FileSize(segment), c.want_repaired_size);
      // After repair the log replays clean — no torn tail remains.
      WalReplayStats again;
      ASSERT_TRUE(ReplayWal(tmp.path, 0,
                            [](const WalRecord&) { return OkStatus(); },
                            &again)
                      .ok());
      EXPECT_EQ(again.records_replayed, c.want_replayed);
      EXPECT_EQ(again.torn_records_discarded, 0u);
    }
  }

  // Every byte of the segment, flipped or cut at: the replay is ok or
  // kDataLoss, what it replays is a prefix of 1..5, and no flip goes
  // unnoticed.
  for (std::int64_t offset = 0; offset < header + 5 * record; ++offset) {
    for (const bool flip : {true, false}) {
      SCOPED_TRACE((flip ? "flip at " : "cut at ") + std::to_string(offset));
      TempDir tmp;
      Damage(BuildSingleSegment(tmp.path, 5), offset, flip);
      std::vector<std::uint64_t> seqs;
      const Status status = ReplayWal(
          tmp.path, 0,
          [&](const WalRecord& r) {
            seqs.push_back(r.seq);
            return OkStatus();
          },
          nullptr, /*repair_torn_tail=*/true);
      EXPECT_TRUE(status.ok() || status.code() == StatusCode::kDataLoss)
          << status.ToString();
      const std::vector<std::uint64_t> all = {1, 2, 3, 4, 5};
      ASSERT_LE(seqs.size(), all.size());
      EXPECT_EQ(seqs, decltype(all)(all.begin(), all.begin() + seqs.size()));
      EXPECT_TRUE(!flip || !status.ok() || seqs.size() < 5);
    }
  }
}

// ---------------------------------------------------------------------------
// F: the same damage in the MIDDLE of the log is kDataLoss, never repaired
// ---------------------------------------------------------------------------

TEST(Wal, MidLogCorruptionIsDataLoss) {
  const auto build_three_segments = [](const std::string& dir) {
    WalOptions options;
    options.fsync_policy = FsyncPolicy::kEveryRecord;
    auto writer_or = WalWriter::Open(dir, 1, options);
    ASSERT_TRUE(writer_or.ok());
    auto writer = std::move(writer_or).value();
    AppendRange(*writer, 1, 4, /*rotate=*/true);  // segments 1, 5, 9
    AppendRange(*writer, 5, 8, /*rotate=*/true);
    AppendRange(*writer, 9, 10, /*rotate=*/false);
  };
  const auto replay = [](const std::string& dir) {
    return ReplayWal(dir, 0, [](const WalRecord&) { return OkStatus(); },
                     nullptr, /*repair_torn_tail=*/true);
  };

  {
    TempDir tmp;
    build_three_segments(tmp.path);
    // Corrupt a record in the FIRST (non-final) segment.
    FlipByte(StampedPath(tmp.path, "wal-", 1, ".seg"),
             kWalSegmentHeaderBytes + 10);
    EXPECT_EQ(replay(tmp.path).code(), StatusCode::kDataLoss);
  }
  {
    TempDir tmp;
    build_three_segments(tmp.path);
    // Remove the middle segment entirely: sequence gap 4 -> 9.
    ASSERT_EQ(::unlink(StampedPath(tmp.path, "wal-", 5, ".seg").c_str()), 0);
    EXPECT_EQ(replay(tmp.path).code(), StatusCode::kDataLoss);
  }
}

// A segment wholly at or below after_seq is skipped unread: only its header
// is checked, so damage in its records is not the replay's business.
TEST(Wal, CoveredSegmentsAreSkippedUnread) {
  const auto build_three_segments = [](const std::string& dir) {
    auto writer_or = WalWriter::Open(dir, 1, {});
    ASSERT_TRUE(writer_or.ok());
    auto writer = std::move(writer_or).value();
    AppendRange(*writer, 1, 4, /*rotate=*/true);  // segments 1, 5, 9
    AppendRange(*writer, 5, 8, /*rotate=*/true);
    AppendRange(*writer, 9, 10, /*rotate=*/false);
  };
  const auto replay = [](const std::string& dir, std::uint64_t after_seq,
                         std::vector<std::uint64_t>* seqs,
                         WalReplayStats* stats) {
    return ReplayWal(dir, after_seq,
                     [seqs](const WalRecord& r) {
                       seqs->push_back(r.seq);
                       return OkStatus();
                     },
                     stats, /*repair_torn_tail=*/true);
  };
  TempDir tmp;
  build_three_segments(tmp.path);
  const std::string first = StampedPath(tmp.path, "wal-", 1, ".seg");
  FlipByte(first, kWalSegmentHeaderBytes + 10);

  // Segment 1 holds 1..4 and its successor starts at 5 = after_seq + 1.
  std::vector<std::uint64_t> seqs;
  WalReplayStats stats;
  ASSERT_TRUE(replay(tmp.path, 4, &seqs, &stats).ok());
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(stats.records_replayed, 6u);
  EXPECT_EQ(stats.last_seq, 10u);
  EXPECT_EQ(stats.torn_records_discarded, 0u);

  // Record 4 is needed from after_seq 3: segment 1 straddles it, is
  // parsed, and the same flip is mid-log corruption.
  seqs.clear();
  EXPECT_EQ(replay(tmp.path, 3, &seqs, nullptr).code(),
            StatusCode::kDataLoss);

  // A covered segment's header is still checked.
  FlipByte(first, kWalSegmentHeaderBytes + 10);  // undo the record flip
  FlipByte(first, 9);
  seqs.clear();
  EXPECT_EQ(replay(tmp.path, 4, &seqs, nullptr).code(),
            StatusCode::kDataLoss);
}

// Appends zero bytes to `path`, as the preallocated space of a crashed
// writer's active segment.
void AppendZeros(const std::string& path, std::int64_t bytes) {
  TruncateFile(path, FileSize(path) + bytes);
}

TEST(Wal, ZeroTailIsTheCleanEndOfASegment) {
  const std::int64_t header = kWalSegmentHeaderBytes;
  const std::int64_t record = kWalRecordBytes;
  const auto replay = [](const std::string& dir, WalReplayStats* stats,
                         bool repair) {
    return ReplayWal(dir, 0, [](const WalRecord&) { return OkStatus(); },
                     stats, repair);
  };
  {
    SCOPED_TRACE("final segment: every record replays, repair trims");
    TempDir tmp;
    const std::string segment = BuildSingleSegment(tmp.path, 5);
    AppendZeros(segment, 3 * record + 11);
    WalReplayStats stats;
    ASSERT_TRUE(replay(tmp.path, &stats, /*repair=*/false).ok());
    EXPECT_EQ(stats.records_replayed, 5u);
    EXPECT_EQ(stats.torn_records_discarded, 0u);
    EXPECT_EQ(FileSize(segment), header + 8 * record + 11);  // not repaired
    ASSERT_TRUE(replay(tmp.path, &stats, /*repair=*/true).ok());
    EXPECT_EQ(stats.records_replayed, 5u);
    EXPECT_EQ(stats.torn_records_discarded, 0u);
    EXPECT_EQ(FileSize(segment), header + 5 * record);
  }
  {
    SCOPED_TRACE("zeros then one nonzero byte are torn");
    TempDir tmp;
    const std::string segment = BuildSingleSegment(tmp.path, 5);
    AppendZeros(segment, 2 * record);
    FlipByte(segment, FileSize(segment) - 1);
    WalReplayStats stats;
    ASSERT_TRUE(replay(tmp.path, &stats, /*repair=*/true).ok());
    EXPECT_EQ(stats.records_replayed, 5u);
    EXPECT_GE(stats.torn_records_discarded, 1u);
    EXPECT_EQ(FileSize(segment), header + 5 * record);
  }
  // Segment 1 holds records 1..`last` and a zero tail, segment 6 holds
  // 6..8: the zero tail is fine, and losing record 5 to it is not.
  for (const std::uint64_t last : {5, 4}) {
    SCOPED_TRACE("non-final segment ending at " + std::to_string(last));
    TempDir tmp;
    {
      auto writer_or = WalWriter::Open(tmp.path, 1, {});
      ASSERT_TRUE(writer_or.ok());
      AppendRange(*writer_or.value(), 1, 5, /*rotate=*/true);
      AppendRange(*writer_or.value(), 6, 8, /*rotate=*/false);
    }
    const std::string first = StampedPath(tmp.path, "wal-", 1, ".seg");
    TruncateFile(first, header + static_cast<std::int64_t>(last) * record);
    AppendZeros(first, 4096);
    std::vector<std::uint64_t> seqs;
    WalReplayStats stats;
    const Status status = ReplayWal(
        tmp.path, 0,
        [&](const WalRecord& r) {
          seqs.push_back(r.seq);
          return OkStatus();
        },
        &stats);
    if (last == 5) {
      ASSERT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8}));
      EXPECT_EQ(stats.torn_records_discarded, 0u);
    } else {
      EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
    }
  }
}

// More than two windows of records: the window slides and the file grows
// under a live writer, a replay of the unsealed segment reads the
// preallocated rest as its clean end, and sealing trims it.
TEST(Wal, RoundTripsAcrossWindows) {
  const std::uint64_t records = 3 * kWalWindowBytes / kWalRecordBytes;
  TempDir tmp;
  auto writer_or = WalWriter::Open(tmp.path, 1, {});
  ASSERT_TRUE(writer_or.ok()) << writer_or.status().ToString();
  auto writer = std::move(writer_or).value();
  for (std::uint64_t seq = 1; seq <= records; ++seq) {
    ASSERT_TRUE(writer->Append(TestRecord(seq)).ok()) << seq;
    // Syncs a window slide lies between, and syncs within one window.
    if (seq % 1000 == 0 || seq % 1000 == 7) {
      ASSERT_TRUE(writer->Sync().ok()) << seq;
    }
  }
  const std::string segment = StampedPath(tmp.path, "wal-", 1, ".seg");
  const std::int64_t sealed_size =
      kWalSegmentHeaderBytes + static_cast<std::int64_t>(records) *
                                   static_cast<std::int64_t>(kWalRecordBytes);
  EXPECT_GT(FileSize(segment), sealed_size);  // preallocated ahead
  const auto expect_all = [&](const char* when) {
    SCOPED_TRACE(when);
    std::uint64_t next = 1;
    WalReplayStats stats;
    ASSERT_TRUE(ReplayWal(tmp.path, 0,
                          [&](const WalRecord& r) {
                            const WalRecord want = TestRecord(next++);
                            EXPECT_EQ(r.seq, want.seq);
                            EXPECT_EQ(r.kind, want.kind);
                            EXPECT_EQ(r.upper_local, want.upper_local);
                            EXPECT_EQ(r.lower_local, want.lower_local);
                            return OkStatus();
                          },
                          &stats)
                    .ok());
    EXPECT_EQ(stats.records_replayed, records);
    EXPECT_EQ(stats.torn_records_discarded, 0u);
  };
  expect_all("live writer");
  EXPECT_EQ(writer->BytesAppended(), records * kWalRecordBytes);
  writer.reset();
  EXPECT_EQ(FileSize(segment), sealed_size);
  expect_all("sealed");
}

// ---------------------------------------------------------------------------
// G: snapshot file I/O
// ---------------------------------------------------------------------------

StateSnapshot TestState(std::uint64_t applied) {
  StateSnapshot snapshot;
  snapshot.applied = applied;
  snapshot.num_upper = 3;
  snapshot.num_lower = 4;
  snapshot.num_butterflies = 17;
  snapshot.upper = {0, 1, 2, 0xFFFFFFFFu, 2};
  snapshot.lower = {3, 4, 5, 0xFFFFFFFFu, 6};
  snapshot.support = {2, 1, 3, 0, 1};
  snapshot.phi = {2, 1, 2, 0, 1};
  snapshot.free_slots = {3};  // stack order matters and must round-trip
  return snapshot;
}

TEST(SnapshotIo, RoundTripsAllFields) {
  TempDir tmp;
  const StateSnapshot want = TestState(42);
  ASSERT_TRUE(WriteSnapshotFile(tmp.path, want).ok());

  int corrupt_skipped = -1;
  auto loaded_or = LoadNewestSnapshot(tmp.path, &corrupt_skipped);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const StateSnapshot& got = loaded_or.value();
  EXPECT_EQ(corrupt_skipped, 0);
  EXPECT_EQ(got.applied, want.applied);
  EXPECT_EQ(got.num_upper, want.num_upper);
  EXPECT_EQ(got.num_lower, want.num_lower);
  EXPECT_EQ(got.num_butterflies, want.num_butterflies);
  EXPECT_EQ(got.upper, want.upper);
  EXPECT_EQ(got.lower, want.lower);
  EXPECT_EQ(got.support, want.support);
  EXPECT_EQ(got.phi, want.phi);
  EXPECT_EQ(got.free_slots, want.free_slots);
}

TEST(SnapshotIo, FallsBackPastCorruptSnapshots) {
  TempDir tmp;
  ASSERT_TRUE(WriteSnapshotFile(tmp.path, TestState(5)).ok());
  ASSERT_TRUE(WriteSnapshotFile(tmp.path, TestState(9)).ok());

  // Damage the NEWEST file's payload: the loader must fall back to 5.
  FlipByte(StampedPath(tmp.path, "snapshot-", 9, ".snap"), 30);
  int corrupt_skipped = 0;
  auto loaded_or = LoadNewestSnapshot(tmp.path, &corrupt_skipped);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  EXPECT_EQ(loaded_or.value().applied, 5u);
  EXPECT_EQ(corrupt_skipped, 1);

  // Every byte of it flipped or cut at is caught the same way.
  const std::string newest = StampedPath(tmp.path, "snapshot-", 9, ".snap");
  const std::int64_t size = FileSize(newest);
  for (std::int64_t offset = 0; offset < size; ++offset) {
    for (const bool flip : {true, false}) {
      SCOPED_TRACE((flip ? "flip at " : "cut at ") + std::to_string(offset));
      ASSERT_TRUE(WriteSnapshotFile(tmp.path, TestState(9)).ok());
      Damage(newest, offset, flip);
      auto fallback = LoadNewestSnapshot(tmp.path);
      ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
      EXPECT_EQ(fallback.value().applied, 5u);
    }
  }

  // Both damaged: nothing intact remains.
  FlipByte(StampedPath(tmp.path, "snapshot-", 5, ".snap"), 30);
  EXPECT_EQ(LoadNewestSnapshot(tmp.path).status().code(),
            StatusCode::kNotFound);
}

TEST(SnapshotIo, EmptyDirIsNotFoundAndRetainKeepsTheTwoNamed) {
  TempDir tmp;
  EXPECT_EQ(LoadNewestSnapshot(tmp.path).status().code(),
            StatusCode::kNotFound);

  for (const std::uint64_t applied : {1, 2, 3, 5, 8}) {
    ASSERT_TRUE(WriteSnapshotFile(tmp.path, TestState(applied)).ok());
  }
  // Older, in between and newer stamps all go.
  EXPECT_EQ(RetainSnapshots(tmp.path, 2, 5), 3);
  EXPECT_EQ(ListStampedFiles(tmp.path, "snapshot-", ".snap"),
            (std::vector<std::uint64_t>{2, 5}));
  auto loaded_or = LoadNewestSnapshot(tmp.path);
  ASSERT_TRUE(loaded_or.ok());
  EXPECT_EQ(loaded_or.value().applied, 5u);
}

// ---------------------------------------------------------------------------
// H: dynamic-graph state export/restore (the payload the snapshot carries)
// ---------------------------------------------------------------------------

TEST(DynamicGraphState, ExportRestoreContinuesIdentically) {
  const BipartiteGraph seed = GenerateUniformBipartite(10, 8, 30, 11);
  const std::vector<EdgeUpdate> ops = MakeStream(seed, 20, 77);
  Oracle oracle(seed, ops);

  DynamicBipartiteGraph original(seed);
  for (std::uint64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(ApplyTo(original, ops[i]).ok());
  }
  auto restored_or = DynamicBipartiteGraph::FromState(original.ExportState());
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  DynamicBipartiteGraph restored = std::move(restored_or).value();
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(restored, oracle.At(12)));

  // Continuing the SAME op stream must assign the same slots (free-slot
  // stack order survived the round trip).
  for (std::uint64_t i = 12; i < ops.size(); ++i) {
    ASSERT_TRUE(ApplyTo(restored, ops[i]).ok());
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(restored, oracle.At(ops.size())));
}

TEST(DynamicGraphState, FromStateRejectsCorruptImages) {
  const BipartiteGraph seed = GenerateUniformBipartite(6, 5, 12, 3);
  DynamicBipartiteGraph graph(seed);
  const DynamicGraphState good = graph.ExportState();

  {
    DynamicGraphState bad = good;
    bad.lower.pop_back();  // parallel arrays disagree
    EXPECT_EQ(DynamicBipartiteGraph::FromState(bad).status().code(),
              StatusCode::kDataLoss);
  }
  {
    DynamicGraphState bad = good;
    bad.upper[0] = bad.num_upper + bad.num_lower + 5;  // endpoint range
    EXPECT_EQ(DynamicBipartiteGraph::FromState(bad).status().code(),
              StatusCode::kDataLoss);
  }
  {
    DynamicGraphState bad = good;
    bad.upper[1] = bad.upper[0];  // duplicate edge
    bad.lower[1] = bad.lower[0];
    EXPECT_EQ(DynamicBipartiteGraph::FromState(bad).status().code(),
              StatusCode::kDataLoss);
  }
  {
    DynamicGraphState bad = good;
    bad.free_slots.push_back(0);  // claims a live slot is free
    EXPECT_EQ(DynamicBipartiteGraph::FromState(bad).status().code(),
              StatusCode::kDataLoss);
  }
}

TEST(IncrementalBitruss, RestoreCtorValidatesPhiSize) {
  const BipartiteGraph seed = GenerateUniformBipartite(6, 5, 12, 3);
  DynamicBipartiteGraph graph(seed);
  std::vector<SupportT> wrong(graph.NumSlots() + 1, 0);
  EXPECT_THROW(IncrementalBitruss(std::move(graph), std::move(wrong)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// J: service durability lifecycle (no faults)
// ---------------------------------------------------------------------------

BitrussServiceOptions DurableOptions(const std::string& dir) {
  BitrussServiceOptions options;
  options.persist.dir = dir;
  options.persist.fsync_policy = FsyncPolicy::kEveryRecord;
  options.persist.snapshot_every_updates = 8;
  options.publish_every_updates = 4;
  return options;
}

// Recover() with the options the lifecycle tests use.
StatusOr<std::unique_ptr<BitrussService>> RecoverService(
    const BipartiteGraph& seed, const std::string& dir, RecoveryStats* stats) {
  BitrussServiceOptions options;
  options.persist.dir = dir;
  options.persist.fsync_policy = FsyncPolicy::kEveryPublish;
  return BitrussService::Recover(seed, options, stats);
}

TEST(BitrussServicePersist, RecoverFromEmptyDirIsAFreshStart) {
  TempDir tmp;
  TempDir fresh_dir;
  const BipartiteGraph seed = GenerateUniformBipartite(12, 10, 40, 5);
  const std::vector<EdgeUpdate> ops = MakeStream(seed, 20, 77);
  BitrussServiceOptions options = DurableOptions(tmp.path);
  options.persist.snapshot_every_updates = 0;  // keep the stream in the WAL
  {
    RecoveryStats stats;
    auto recovered_or = BitrussService::Recover(seed, options, &stats);
    ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
    BitrussService& service = *recovered_or.value();
    EXPECT_TRUE(stats.from_seed);
    EXPECT_EQ(stats.wal_replayed, 0u);
    EXPECT_EQ(service.RecoveredBase(), 0u);
    EXPECT_FALSE(service.Degraded());
    ASSERT_NO_FATAL_FAILURE(
        ExpectMatches(*service.Snapshot(), Oracle(seed, ops).At(0)));

    // The same files a fresh durable constructor leaves behind.
    const std::vector<std::uint64_t> snapshot_zero = {0};
    const std::vector<std::uint64_t> wal_from_one = {1};
    EXPECT_EQ(ListStampedFiles(tmp.path, "snapshot-", ".snap"), snapshot_zero);
    EXPECT_EQ(ListStampedFiles(tmp.path, "wal-", ".seg"), wal_from_one);
    {
      BitrussService fresh(seed, DurableOptions(fresh_dir.path));
      EXPECT_EQ(ListStampedFiles(fresh_dir.path, "snapshot-", ".snap"),
                snapshot_zero);
      EXPECT_EQ(ListStampedFiles(fresh_dir.path, "wal-", ".seg"),
                wal_from_one);
    }

    for (const EdgeUpdate& op : ops) ASSERT_TRUE(service.Submit(op).ok());
    ASSERT_TRUE(service.Drain().ok());
    service.Shutdown(/*drain=*/false);  // seal the WAL, no covering snapshot
  }

  RecoveryStats stats;
  auto recovered_or = RecoverService(seed, tmp.path, &stats);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_FALSE(stats.from_seed);
  EXPECT_EQ(stats.snapshot_applied, 0u);
  EXPECT_EQ(stats.wal_replayed, ops.size());
  EXPECT_EQ(recovered_or.value()->RecoveredBase(), ops.size());
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(*recovered_or.value()->Snapshot(),
                                        Oracle(seed, ops).At(ops.size())));
  recovered_or.value()->Shutdown(true);
}

TEST(BitrussServicePersist, FreshCtorRefusesDirtyDir) {
  TempDir tmp;
  const BipartiteGraph seed(2, 2, {{0, 0}, {1, 1}});
  { BitrussService service(seed, DurableOptions(tmp.path)); }
  // Prior durable state must go through Recover(), never be clobbered.
  EXPECT_THROW(BitrussService(seed, DurableOptions(tmp.path)),
               std::invalid_argument);
}

TEST(BitrussServicePersist, NoDrainShutdownRecoversAckedTail) {
  TempDir tmp;
  const BipartiteGraph seed = GenerateUniformBipartite(12, 10, 40, 5);
  const std::vector<EdgeUpdate> ops = MakeStream(seed, 10, 31);
  {
    BitrussServiceOptions options = DurableOptions(tmp.path);
    options.persist.snapshot_every_updates = 0;  // WAL only
    BitrussService service(seed, options);
    // Park the writer: every op is ACKED (WAL-logged) but none applied.
    service.Pause();
    for (const EdgeUpdate& op : ops) ASSERT_TRUE(service.Submit(op).ok());
    service.Shutdown(/*drain=*/false);  // discard the queue, keep the log
  }

  obs::Counter* replayed = obs::MetricsRegistry::Default().GetCounter(
      "bitruss_recovery_replayed_total");
  const std::uint64_t replayed_before = replayed->Value();
  RecoveryStats stats;
  auto recovered_or = RecoverService(seed, tmp.path, &stats);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  // Everything acknowledged must come back — from the WAL alone.
  EXPECT_EQ(stats.snapshot_applied, 0u);
  EXPECT_EQ(stats.wal_replayed, 10u);
  EXPECT_EQ(replayed->Value(), replayed_before + 10);
  EXPECT_EQ(recovered_or.value()->RecoveredBase(), 10u);
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(*recovered_or.value()->Snapshot(),
                                        Oracle(seed, ops).At(10)));
  recovered_or.value()->Shutdown(true);
}

// Submits ops[begin, end) one at a time, each drained before the next, so
// a checkpoint lands with nothing submitted past it and its rotation
// starts the next segment at exactly its count.
void FeedDrained(BitrussService& service, const std::vector<EdgeUpdate>& ops,
                 std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    ASSERT_TRUE(service.Submit(ops[i]).ok()) << i;
    ASSERT_TRUE(service.Drain().ok()) << i;
  }
}

// Flips a payload byte of the newest snapshot under `dir`.
void CorruptNewestSnapshot(const std::string& dir) {
  const std::vector<std::uint64_t> stamps =
      ListStampedFiles(dir, "snapshot-", ".snap");
  ASSERT_FALSE(stamps.empty());
  FlipByte(StampedPath(dir, "snapshot-", stamps.back(), ".snap"), 30);
}

// Recover() from `dir` must pass over exactly one corrupt snapshot, load
// the one stamped `fallback`, and match the truth after `count` updates.
void ExpectFallbackRecovery(const BipartiteGraph& seed,
                            const BitrussServiceOptions& options,
                            std::uint64_t fallback, std::uint64_t count,
                            Oracle& oracle) {
  RecoveryStats stats;
  auto recovered_or = BitrussService::Recover(seed, options, &stats);
  EXPECT_EQ(stats.corrupt_snapshots_skipped, 1);
  EXPECT_EQ(stats.snapshot_applied, fallback);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ(stats.wal_replayed, count - fallback);
  BitrussService& service = *recovered_or.value();
  EXPECT_FALSE(service.Degraded()) << service.DegradedReason();
  EXPECT_EQ(service.RecoveredBase(), count);
  ASSERT_NO_FATAL_FAILURE(
      ExpectMatches(*service.Snapshot(), oracle.At(count)));
  service.Shutdown(/*drain=*/false);
}

TEST(BitrussServicePersist, RecoverFallsBackPastACorruptNewestSnapshot) {
  const BipartiteGraph seed = GenerateUniformBipartite(12, 10, 40, 5);
  const std::vector<EdgeUpdate> ops = MakeStream(seed, 30, 57);
  Oracle oracle(seed, ops);
  {
    SCOPED_TRACE("(a) after writer checkpoints");
    TempDir tmp;
    BitrussServiceOptions options = DurableOptions(tmp.path);
    options.persist.snapshot_every_updates = 4;
    {
      BitrussService service(seed, options);
      ASSERT_NO_FATAL_FAILURE(FeedDrained(service, ops, 0, 22));
      service.Shutdown(/*drain=*/false);
    }
    // Retention after the checkpoints at 4..20: the current and the
    // previous snapshot, and the segments from the previous checkpoint's
    // rotation on.
    EXPECT_EQ(ListStampedFiles(tmp.path, "snapshot-", ".snap"),
              (std::vector<std::uint64_t>{16, 20}));
    EXPECT_EQ(ListStampedFiles(tmp.path, "wal-", ".seg"),
              (std::vector<std::uint64_t>{17, 21}));
    ASSERT_NO_FATAL_FAILURE(CorruptNewestSnapshot(tmp.path));
    ASSERT_NO_FATAL_FAILURE(
        ExpectFallbackRecovery(seed, options, 16, 22, oracle));
  }
  {
    SCOPED_TRACE("(b) after a clean Recover and a no-drain shutdown");
    TempDir tmp;
    BitrussServiceOptions options;  // the default checkpoint cadence
    options.persist.dir = tmp.path;
    {
      BitrussService service(seed, options);
      ASSERT_NO_FATAL_FAILURE(FeedDrained(service, ops, 0, 10));
      service.Shutdown(/*drain=*/true);  // checkpoint at 10
    }
    {
      RecoveryStats stats;
      auto recovered_or = BitrussService::Recover(seed, options, &stats);
      ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
      EXPECT_EQ(stats.snapshot_applied, 10u);
      ASSERT_NO_FATAL_FAILURE(
          FeedDrained(*recovered_or.value(), ops, 10, 20));
      recovered_or.value()->Shutdown(/*drain=*/false);
    }
    ASSERT_NO_FATAL_FAILURE(CorruptNewestSnapshot(tmp.path));
    ASSERT_NO_FATAL_FAILURE(
        ExpectFallbackRecovery(seed, options, 0, 20, oracle));

    SCOPED_TRACE("(c) a second Recover after a fallback recovery");
    // The fallback recovery checkpointed at 20, kept snapshot 0 (the one
    // it loaded) with the whole WAL, and dropped the corrupt snapshot 10.
    EXPECT_EQ(ListStampedFiles(tmp.path, "snapshot-", ".snap"),
              (std::vector<std::uint64_t>{0, 20}));
    {
      auto recovered_or = BitrussService::Recover(seed, options, nullptr);
      ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
      ASSERT_NO_FATAL_FAILURE(
          FeedDrained(*recovered_or.value(), ops, 20, 30));
      recovered_or.value()->Shutdown(/*drain=*/false);
    }
    ASSERT_NO_FATAL_FAILURE(CorruptNewestSnapshot(tmp.path));
    ASSERT_NO_FATAL_FAILURE(
        ExpectFallbackRecovery(seed, options, 0, 30, oracle));
  }
}

TEST(BitrussServicePersist, CorruptedMiddleOfWalFailsRecovery) {
  TempDir tmp;
  // Hand-build a WAL with two sealed segments and no snapshot, then damage
  // the FIRST segment: acknowledged records are gone, Recover must refuse.
  WalOptions options;
  options.fsync_policy = FsyncPolicy::kEveryRecord;
  {
    auto writer_or = WalWriter::Open(tmp.path, 1, options);
    ASSERT_TRUE(writer_or.ok());
    auto writer = std::move(writer_or).value();
    const BipartiteGraph seed = GenerateUniformBipartite(12, 10, 0, 5);
    const std::vector<EdgeUpdate> ops = MakeStream(seed, 10, 41);
    for (std::uint64_t i = 0; i < ops.size(); ++i) {
      ASSERT_TRUE(writer->Append(
          {i + 1, static_cast<std::uint8_t>(ops[i].kind), ops[i].upper_local,
           ops[i].lower_local}).ok());
      if (i == 3) {
        ASSERT_TRUE(writer->Rotate().ok());  // segments 1 and 5
      }
    }
  }
  FlipByte(StampedPath(tmp.path, "wal-", 1, ".seg"),
           kWalSegmentHeaderBytes + 12);

  const BipartiteGraph seed = GenerateUniformBipartite(12, 10, 0, 5);
  auto recovered_or = RecoverService(seed, tmp.path, nullptr);
  EXPECT_EQ(recovered_or.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// K: the crash matrix — fork a child, kill it AT every fault point, recover
// ---------------------------------------------------------------------------

#if defined(BITRUSS_FAULT_INJECTION_ENABLED)

struct CrashCase {
  const char* point;
  fault::FaultAction action;
  std::uint64_t skip_first;
  std::uint64_t compact_every = 0;  // child-side compaction cadence
  FsyncPolicy policy = FsyncPolicy::kEveryRecord;  // the child's
};

// Child body: arm the fault, run a durable service over the deterministic
// stream, and report by exit status.  Everything uses _exit (no gtest, no
// atexit) — the child is expected to die by SIGKILL at the armed point.
[[noreturn]] void RunCrashChild(const CrashCase& c, const std::string& dir,
                                const BipartiteGraph& seed,
                                const std::vector<EdgeUpdate>& ops) {
  fault::ArmSpec spec;
  spec.action = c.action;
  spec.skip_first = c.skip_first;
  spec.seed = 7;
  fault::Arm(c.point, spec);

  BitrussServiceOptions options;
  options.persist.dir = dir;
  options.persist.fsync_policy = c.policy;
  options.persist.snapshot_every_updates = 4;  // rotates every 4 records
  options.publish_every_updates = 2;
  options.compact_every_updates = c.compact_every;
  try {
    BitrussService service(seed, options);
    for (const EdgeUpdate& op : ops) {
      if (!service.Submit(op).ok()) _exit(3);
    }
    (void)service.Drain();
    service.Shutdown(true);
  } catch (...) {
    _exit(4);
  }
  _exit(0);  // the armed fault never fired — the parent fails on this
}

TEST(BitrussServiceCrash, RecoversBitExactAfterKillAtEveryFaultPoint) {
  const CrashCase cases[] = {
      {"wal.open", fault::FaultAction::kKill, 0},
      {"wal.append", fault::FaultAction::kKill, 6},
      {"wal.append", fault::FaultAction::kTornWrite, 6},
      {"wal.pre_fsync", fault::FaultAction::kKill, 6},
      {"wal.post_fsync", fault::FaultAction::kKill, 6},
      // The first checkpoint's rotation (the startup one has nothing to
      // rotate; later ones may find every record already submitted).
      {"wal.rotate", fault::FaultAction::kKill, 0},
      // Growing the first checkpoint's fresh segment (hit 0 maps the
      // startup segment).
      {"wal.grow", fault::FaultAction::kKill, 1},
      {"wal.truncate", fault::FaultAction::kKill, 1},
      {"snapshot.tmp_write", fault::FaultAction::kKill, 1},
      {"snapshot.tmp_write", fault::FaultAction::kTornWrite, 1},
      {"snapshot.pre_rename", fault::FaultAction::kKill, 1},
      {"snapshot.post_rename", fault::FaultAction::kKill, 1},
      // With compaction, slot ids diverge from a straight replay; the
      // recovered phi HISTOGRAM must still match the truth.
      {"snapshot.tmp_write", fault::FaultAction::kKill, 2,
       /*compact_every=*/6},
      // An append copied into the page cache survives process death under
      // every policy, synced or not.
      {"wal.append", fault::FaultAction::kTornWrite, 6, 0,
       FsyncPolicy::kEveryPublish},
      {"wal.append", fault::FaultAction::kTornWrite, 6, 0,
       FsyncPolicy::kOsBuffered},
      {"wal.pre_fsync", fault::FaultAction::kKill, 6, 0,
       FsyncPolicy::kEveryPublish},
      {"wal.grow", fault::FaultAction::kKill, 1, 0, FsyncPolicy::kOsBuffered},
  };
  const BipartiteGraph seed = GenerateUniformBipartite(12, 10, 40, 5);
  const std::vector<EdgeUpdate> ops = MakeStream(seed, 24, 99);
  Oracle oracle(seed, ops);  // no compaction: see the multiset case
  const obs::Counter* torn = obs::MetricsRegistry::Default().GetCounter(
      "bitruss_recovery_torn_records_total");
  const auto recoveries = [] {
    const obs::RegistrySnapshot snapshot =
        obs::MetricsRegistry::Default().Snapshot();
    const obs::HistogramSample* seconds =
        snapshot.FindHistogram("bitruss_recovery_seconds");
    return seconds == nullptr ? std::uint64_t{0} : seconds->count;
  };

  for (const CrashCase& c : cases) {
    SCOPED_TRACE(std::string(c.point) + "/" +
                 std::to_string(static_cast<int>(c.action)) + "/skip" +
                 std::to_string(c.skip_first) + "/policy" +
                 std::to_string(static_cast<int>(c.policy)));
    TempDir tmp;
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << std::strerror(errno);
    if (pid == 0) RunCrashChild(c, tmp.path, seed, ops);

    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    // The child must have died AT the fault point, not exited.
    ASSERT_TRUE(WIFSIGNALED(wstatus))
        << "child exited with " << WEXITSTATUS(wstatus)
        << " instead of crashing";
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

    BitrussServiceOptions options;
    options.persist.dir = tmp.path;
    options.persist.fsync_policy = FsyncPolicy::kEveryPublish;
    const std::uint64_t torn_before = torn->Value();
    const std::uint64_t recoveries_before = recoveries();
    RecoveryStats stats;
    auto recovered_or = BitrussService::Recover(seed, options, &stats);
    ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
    auto& service = *recovered_or.value();
    EXPECT_FALSE(service.Degraded()) << service.DegradedReason();
    // Every recovery is timed once and counts the torn records it dropped.
    EXPECT_EQ(torn->Value() - torn_before, stats.torn_records_discarded);
    EXPECT_EQ(recoveries() - recoveries_before, 1u);
    // Only durable (hence acknowledged) updates may be recovered, and all
    // of them must be.
    ASSERT_LE(service.RecoveredBase(), ops.size());
    const auto snap = service.Snapshot();
    ASSERT_EQ(snap->applied_updates, service.RecoveredBase());
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(
        *snap, oracle.At(service.RecoveredBase()),
        c.compact_every == 0 ? Match::kSlots : Match::kMultiset));
    service.Shutdown(true);
  }
}

// The record that straddles the first window's edge is appended into the
// slid window.  A child dies appending it (torn or killed) under each
// policy; the parent must recover exactly the records before it, all of
// them acknowledged, and a writer reopened after the repair continues the
// log.
TEST(WalCrash, DeathAtTheWindowEdgeRecoversEveryAcknowledgedRecord) {
  const std::uint64_t straddler =
      (kWalWindowBytes - kWalSegmentHeaderBytes) / kWalRecordBytes + 1;
  ASSERT_LT(kWalSegmentHeaderBytes + (straddler - 1) * kWalRecordBytes,
            kWalWindowBytes);
  ASSERT_GT(kWalSegmentHeaderBytes + straddler * kWalRecordBytes,
            kWalWindowBytes);
  for (const FsyncPolicy policy :
       {FsyncPolicy::kEveryRecord, FsyncPolicy::kEveryPublish,
        FsyncPolicy::kOsBuffered}) {
    for (const fault::FaultAction action :
         {fault::FaultAction::kTornWrite, fault::FaultAction::kKill}) {
      SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)) +
                   ", action " + std::to_string(static_cast<int>(action)));
      TempDir tmp;
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0) << std::strerror(errno);
      if (pid == 0) {
        fault::ArmSpec spec;
        spec.action = action;
        spec.skip_first = straddler - 1;
        spec.seed = 7;
        fault::Arm("wal.append", spec);
        WalOptions options;
        options.fsync_policy = policy;
        auto writer_or = WalWriter::Open(tmp.path, 1, options);
        if (!writer_or.ok()) _exit(3);
        for (std::uint64_t seq = 1; seq <= straddler + 10; ++seq) {
          if (!writer_or.value()->Append(TestRecord(seq)).ok()) _exit(4);
          if (seq % 100 == 0 && !writer_or.value()->Sync().ok()) _exit(5);
        }
        _exit(0);  // the armed fault never fired
      }
      int wstatus = 0;
      ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
      ASSERT_TRUE(WIFSIGNALED(wstatus))
          << "child exited with " << WEXITSTATUS(wstatus);
      ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

      std::uint64_t next = 1;
      WalReplayStats stats;
      ASSERT_TRUE(ReplayWal(tmp.path, 0,
                            [&](const WalRecord& r) {
                              EXPECT_EQ(r.seq, next);
                              ++next;
                              return OkStatus();
                            },
                            &stats, /*repair_torn_tail=*/true)
                      .ok());
      EXPECT_EQ(stats.records_replayed, straddler - 1);
      EXPECT_EQ(FileSize(StampedPath(tmp.path, "wal-", 1, ".seg")),
                static_cast<std::int64_t>(kWalSegmentHeaderBytes +
                                          (straddler - 1) * kWalRecordBytes));

      auto writer_or = WalWriter::Open(tmp.path, straddler, {});
      ASSERT_TRUE(writer_or.ok()) << writer_or.status().ToString();
      ASSERT_TRUE(writer_or.value()->Append(TestRecord(straddler)).ok());
      writer_or.value().reset();
      WalReplayStats again;
      ASSERT_TRUE(ReplayWal(tmp.path, 0,
                            [](const WalRecord&) { return OkStatus(); },
                            &again)
                      .ok());
      EXPECT_EQ(again.records_replayed, straddler);
      EXPECT_EQ(again.torn_records_discarded, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// L: injected write errors degrade to read-only — in-process, no fork
// ---------------------------------------------------------------------------

TEST(BitrussServiceDegrade, WalOpenErrorFailsFreshConstruction) {
  FaultGuard guard;
  TempDir tmp;
  fault::Arm("wal.open", {fault::FaultAction::kError});
  const BipartiteGraph seed(2, 2, {{0, 0}, {1, 1}});
  EXPECT_THROW(BitrussService(seed, DurableOptions(tmp.path)),
               std::runtime_error);
}

struct DegradeCase {
  const char* point;
  fault::FaultAction action;
  std::uint64_t skip_first;
};

TEST(BitrussServiceDegrade, PersistFailuresLatchReadOnlyMode) {
  const DegradeCase cases[] = {
      {"wal.append", fault::FaultAction::kEnospc, 2},
      {"wal.pre_fsync", fault::FaultAction::kError, 2},
      {"wal.post_fsync", fault::FaultAction::kError, 2},
      {"wal.rotate", fault::FaultAction::kError, 0},
      // A full disk when the first checkpoint's fresh segment preallocates.
      {"wal.grow", fault::FaultAction::kEnospc, 0},
      {"wal.truncate", fault::FaultAction::kError, 0},
      {"snapshot.tmp_write", fault::FaultAction::kEnospc, 0},
      {"snapshot.pre_rename", fault::FaultAction::kError, 0},
      {"snapshot.post_rename", fault::FaultAction::kError, 0},
  };
  const BipartiteGraph seed = GenerateUniformBipartite(12, 10, 40, 5);
  const std::vector<EdgeUpdate> ops = MakeStream(seed, 24, 99);

  for (const DegradeCase& c : cases) {
    SCOPED_TRACE(c.point);
    FaultGuard guard;
    TempDir tmp;
    BitrussServiceOptions options;
    options.persist.dir = tmp.path;
    options.persist.fsync_policy = FsyncPolicy::kEveryRecord;
    options.persist.snapshot_every_updates = 4;
    options.publish_every_updates = 2;
    BitrussService service(seed, options);
    const auto before = service.Snapshot();

    // Arm AFTER construction: skip counts start at the first serving hit.
    fault::ArmSpec spec;
    spec.action = c.action;
    spec.skip_first = c.skip_first;
    fault::Arm(c.point, spec);

    // Feed updates until the fault lands; Submit-path faults surface as an
    // immediate non-OK, writer-thread faults need the poll below.
    for (const EdgeUpdate& op : ops) {
      if (!service.Submit(op).ok()) break;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!service.Degraded() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(service.Degraded());

    // Degraded is a READ-ONLY mode: reads keep serving, writes refuse with
    // the reason, health reports it.
    const std::string reason = service.DegradedReason();
    EXPECT_FALSE(reason.empty());
    if (c.action == fault::FaultAction::kEnospc) {
      EXPECT_NE(reason.find("ENOSPC"), std::string::npos) << reason;
    }
    // The operator view of the same latch: the registry gauge on /metrics,
    // and a /healthz body that stays valid JSON although the reason embeds
    // strerror text and the persist path.
    const obs::RegistrySnapshot metrics =
        obs::MetricsRegistry::Default().Snapshot();
    const obs::GaugeSample* gauge = metrics.FindGauge("bitruss_persist_degraded");
    ASSERT_NE(gauge, nullptr);
    EXPECT_GE(gauge->value, 1);
    const std::string health = service.HealthJson();
    EXPECT_TRUE(http_test::IsValidJson(health)) << health;
    EXPECT_NE(health.find("\"status\":\"degraded\""), std::string::npos)
        << health;
    EXPECT_NE(health.find("\"degraded_reason\":"), std::string::npos)
        << health;
    EXPECT_NE(service.Snapshot(), nullptr);
    EXPECT_GE(service.Snapshot()->version, before->version);
    (void)service.PhiHistogram();  // must not crash or block
    const Status refused = service.SubmitInsert(0, 0);
    EXPECT_EQ(refused.code(), StatusCode::kUnavailable) << refused.ToString();
    service.Shutdown(true);  // clean shutdown out of degraded mode
  }
}

TEST(BitrussServiceDegrade, RecoverStartsDegradedWhenRearmFails) {
  FaultGuard guard;
  TempDir tmp;
  const BipartiteGraph seed = GenerateUniformBipartite(8, 6, 20, 7);
  const std::vector<EdgeUpdate> ops = MakeStream(seed, 6, 13);
  {
    BitrussService service(seed, DurableOptions(tmp.path));
    for (const EdgeUpdate& op : ops) ASSERT_TRUE(service.Submit(op).ok());
    service.Shutdown(true);
  }
  // Recovery succeeds at reading state but cannot write its covering
  // snapshot: the service must still come up, read-only.
  fault::Arm("snapshot.tmp_write", {fault::FaultAction::kError});
  auto recovered_or = RecoverService(seed, tmp.path, nullptr);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  auto& service = *recovered_or.value();
  EXPECT_TRUE(service.Degraded());
  EXPECT_EQ(service.RecoveredBase(), 6u);
  ASSERT_NO_FATAL_FAILURE(
      ExpectMatches(*service.Snapshot(), Oracle(seed, ops).At(6)));
  EXPECT_EQ(service.SubmitInsert(0, 0).code(), StatusCode::kUnavailable);
  service.Shutdown(true);
}

#else  // !BITRUSS_FAULT_INJECTION_ENABLED

TEST(BitrussServiceCrash, SkippedWithoutFaultInjection) {
  GTEST_SKIP() << "built with BITRUSS_FAULT_INJECTION=OFF";
}

#endif  // BITRUSS_FAULT_INJECTION_ENABLED

}  // namespace
}  // namespace bitruss
