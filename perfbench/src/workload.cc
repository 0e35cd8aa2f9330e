#include "workload.h"

#include <dirent.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <unordered_set>

#include "gen/chung_lu.h"
#include "util/random.h"

namespace perfbench {

using bitruss::EdgeUpdate;
using bitruss::VertexId;

namespace {

// Shapes follow the repository's Table II stand-ins (gen/dataset_suite.cc),
// scaled down so that every timed call repeats several times within one
// run: a Decompose of the tracker graph takes about 0.13 s and a Recover of
// github-churn's log about 1.2 s on a 4-vCPU x86 VM.  Each backlog takes
// under a second there.  Each open-loop rate leaves the writer idle most
// of the time (about a third of the backlog rate on github-churn, a fourth
// on decompose-tracker, a fifth on writer-churn, where fsync on every
// publish makes the writer's stalls long; a lower rate there makes every
// update wait for its own fsync).
constexpr WorkloadSpec kWorkloads[] = {
    {"decompose-tracker", 5000, 2400, 30000, 0.90, 0.80, StreamKind::kFringe,
     50000, 10000.0, false, "core (BE-Index build and peel) and butterfly",
     Premise::kDecomposeOnlyCore},
    {"github-churn", 3000, 2000, 10000, 0.80, 0.70, StreamKind::kChurn, 600,
     350.0, true, "dynamic fallback recompute (core)",
     Premise::kFallbackDominates},
    {"writer-churn", 3000, 2500, 12000, 0.50, 0.50, StreamKind::kChurn, 50000,
     25000.0, true, "serve (queue, publish, reads) and persist (WAL)",
     Premise::kLocalRepair},
};

std::uint64_t PairKey(VertexId u, VertexId l) {
  return (static_cast<std::uint64_t>(u) << 32) | l;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.emplace_back(spec.name);
  return names;
}

std::size_t OpenLoopArrivals(const WorkloadSpec& spec, double seconds) {
  // p99 needs 100 * kMinBeyond samples; 10% headroom.
  const auto floor = static_cast<std::size_t>(110 * kMinBeyond);
  const auto wanted =
      static_cast<std::size_t>(spec.open_rate * seconds * kOpenLoopShare);
  return std::max(floor, wanted);
}

std::int64_t ProcessCpuNs() {
  timespec t{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return std::int64_t{t.tv_sec} * 1'000'000'000 + t.tv_nsec;
}

std::int64_t ThreadCpuNs() {
  timespec t{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return std::int64_t{t.tv_sec} * 1'000'000'000 + t.tv_nsec;
}

void RunInterleaved(double budget_s, std::vector<Measurement>& measurements) {
  const std::int64_t begin = NowNs();
  const std::int64_t end = begin + static_cast<std::int64_t>(budget_s * 1e9);
  for (;;) {
    const double progress = static_cast<double>(NowNs() - begin) /
                            static_cast<double>(end - begin);
    Measurement* next = nullptr;
    for (Measurement& m : measurements) {
      const bool paced = static_cast<double>(m.reps) <
                         static_cast<double>(m.max_reps) * progress + 1;
      if (m.reps < m.max_reps && paced &&
          (next == nullptr ||
           m.spent_s / m.share < next->spent_s / next->share)) {
        next = &m;
      }
    }
    const bool all_ran = std::all_of(measurements.begin(), measurements.end(),
                                     [](const Measurement& m) { return m.reps > 0; });
    if (next == nullptr || (all_ran && NowNs() >= end)) return;
    const std::int64_t start = NowNs();
    next->rep();
    next->spent_s += static_cast<double>(NowNs() - start) * 1e-9;
    ++next->reps;
  }
}

ReferenceKernel::ReferenceKernel() : table_(std::size_t{1} << 24) {
  bitruss::Rng rng(0x7ab1e);
  for (std::uint32_t& v : table_) v = static_cast<std::uint32_t>(rng.Next());
}

double ReferenceKernel::Run() {
  const std::int64_t cpu = ThreadCpuNs();
  std::uint64_t h = sink_;
  const std::uint32_t mask = static_cast<std::uint32_t>(table_.size() - 1);
  for (std::uint32_t i = 0; i < (1u << 17); ++i) {
    h = (h ^ table_[(i * 2654435761u) & mask]) * 0x9E3779B97F4A7C15ull +
        (h >> 29);
    for (std::uint64_t j = 0; j < 8; ++j) {
      h = (h ^ j) * 0x9E3779B97F4A7C15ull + (h >> 31);
    }
  }
  sink_ = h;
  return static_cast<double>(ThreadCpuNs() - cpu) * 1e-9;
}

std::uint64_t DeriveSeed(std::uint64_t seed, const char* what) {
  bitruss::Rng rng(seed ^ bitruss::HashString64(what));
  return rng.Next();
}

namespace {

/// The workload's logical update stream over `edges`, in base labels.
std::vector<EdgeUpdate> MakeBaseStream(
    const WorkloadSpec& spec,
    const std::vector<std::pair<VertexId, VertexId>>& edges,
    std::size_t count) {
  bitruss::Rng rng(bitruss::HashString64(spec.name) ^ 0x5eedull);
  // Live edges the stream may delete, with O(1) random pick and removal.
  std::vector<std::pair<VertexId, VertexId>> live;
  std::unordered_set<std::uint64_t> present;
  // Upper vertices the fringe stream may attach an edge to.
  std::vector<VertexId> free_upper;
  if (spec.stream == StreamKind::kChurn) {
    live = edges;
    for (const auto& [u, l] : live) present.insert(PairKey(u, l));
  } else {
    std::vector<std::uint8_t> has_edge(spec.num_upper, 0);
    for (const auto& [u, l] : edges) has_edge[u] = 1;
    for (VertexId u = 0; u < spec.num_upper; ++u) {
      if (has_edge[u] == 0) free_upper.push_back(u);
    }
  }

  std::vector<EdgeUpdate> ops;
  ops.reserve(count);
  while (ops.size() < count) {
    const bool can_insert =
        spec.stream == StreamKind::kChurn || !free_upper.empty();
    if (!live.empty() && (!can_insert || rng.NextBool(0.5))) {
      const std::size_t pick = rng.Below(live.size());
      const auto [u, l] = live[pick];
      ops.push_back({EdgeUpdate::Kind::kDelete, u, l});
      live[pick] = live.back();
      live.pop_back();
      if (spec.stream == StreamKind::kChurn) {
        present.erase(PairKey(u, l));
      } else {
        free_upper.push_back(u);
      }
    } else if (spec.stream == StreamKind::kChurn) {
      const auto u = static_cast<VertexId>(rng.Below(spec.num_upper));
      const auto l = static_cast<VertexId>(rng.Below(spec.num_lower));
      if (!present.insert(PairKey(u, l)).second) continue;
      ops.push_back({EdgeUpdate::Kind::kInsert, u, l});
      live.emplace_back(u, l);
    } else {
      const std::size_t pick = rng.Below(free_upper.size());
      const VertexId u = free_upper[pick];
      free_upper[pick] = free_upper.back();
      free_upper.pop_back();
      const auto l = static_cast<VertexId>(rng.Below(spec.num_lower));
      ops.push_back({EdgeUpdate::Kind::kInsert, u, l});
      live.emplace_back(u, l);
    }
  }
  return ops;
}

std::vector<VertexId> RandomPermutation(VertexId n, std::uint64_t seed) {
  std::vector<VertexId> perm(n);
  for (VertexId i = 0; i < n; ++i) perm[i] = i;
  bitruss::Rng rng(seed);
  for (VertexId i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Below(i)]);
  }
  return perm;
}

}  // namespace

WorkloadInput MakeInput(const WorkloadSpec& spec, std::uint64_t seed,
                        std::size_t stream_length) {
  bitruss::ChungLuParams params;
  params.num_upper = spec.num_upper;
  params.num_lower = spec.num_lower;
  params.num_edges = spec.num_edges;
  params.upper_exponent = spec.upper_exponent;
  params.lower_exponent = spec.lower_exponent;
  params.seed = bitruss::HashString64(spec.name);
  WorkloadInput input;
  input.edges = bitruss::GenerateChungLu(params).EdgeList();
  input.stream = MakeBaseStream(spec, input.edges, stream_length);

  const std::vector<VertexId> upper =
      RandomPermutation(spec.num_upper, DeriveSeed(seed, "labels/upper"));
  const std::vector<VertexId> lower =
      RandomPermutation(spec.num_lower, DeriveSeed(seed, "labels/lower"));
  for (auto& [u, l] : input.edges) {
    u = upper[u];
    l = lower[l];
  }
  for (EdgeUpdate& op : input.stream) {
    op.upper_local = upper[op.upper_local];
    op.lower_local = lower[op.lower_local];
  }
  return input;
}

void RemoveDir(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

void ResetDir(const std::string& dir) {
  RemoveDir(dir);
  ::mkdir(dir.c_str(), 0777);
}

void CopyDir(const std::string& from, const std::string& to) {
  ResetDir(to);
  DIR* d = ::opendir(from.c_str());
  if (d == nullptr) return;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    std::ifstream in(from + "/" + name, std::ios::binary);
    std::ofstream out(to + "/" + name, std::ios::binary);
    out << in.rdbuf();
  }
  ::closedir(d);
}

}  // namespace perfbench
