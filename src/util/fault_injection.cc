#include "util/fault_injection.h"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <map>

#include "util/sync.h"

namespace bitruss::fault {

namespace {

struct PointState {
  ArmSpec spec;
  std::uint64_t hits = 0;
  bool fired = false;  // one_shot bookkeeping
};

struct Table {
  Mutex mu;
  std::map<std::string, PointState> points GUARDED_BY(mu);
};

Table& GetTable() {
  static Table* table = new Table();  // leaked: outlives every fault point
  return *table;
}

// Ordering: relaxed — the armed count is a pure fast-path hint; the table
// mutex below is the real synchronization for every armed access.
std::atomic<std::uint64_t> g_armed{0};

std::uint64_t Mix64(std::uint64_t x) {
  // splitmix64 finalizer: cheap, well-distributed, dependency-free.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

void Arm(const std::string& point, const ArmSpec& spec) {
  Table& table = GetTable();
  MutexLock lock(table.mu);
  auto [it, inserted] = table.points.insert_or_assign(point, PointState{spec});
  (void)it;
  if (inserted) g_armed.fetch_add(1, std::memory_order_relaxed);
}

void ResetAll() {
  Table& table = GetTable();
  MutexLock lock(table.mu);
  g_armed.fetch_sub(table.points.size(), std::memory_order_relaxed);
  table.points.clear();
}

std::uint64_t HitCount(const std::string& point) {
  Table& table = GetTable();
  MutexLock lock(table.mu);
  const auto it = table.points.find(point);
  return it == table.points.end() ? 0 : it->second.hits;
}

FaultAction Hit(const char* point) {
  if (g_armed.load(std::memory_order_relaxed) == 0) return FaultAction::kNone;
  Table& table = GetTable();
  MutexLock lock(table.mu);
  const auto it = table.points.find(point);
  if (it == table.points.end()) return FaultAction::kNone;
  PointState& state = it->second;
  ++state.hits;
  if (state.hits <= state.spec.skip_first) return FaultAction::kNone;
  if (state.spec.one_shot && state.fired) return FaultAction::kNone;
  state.fired = true;
  if (state.spec.action == FaultAction::kKill) KillNow();
  return state.spec.action;
}

std::size_t TornKeepBytes(const char* point, std::size_t full_size) {
  if (full_size <= 1) return 0;
  std::uint64_t seed = 1;
  std::uint64_t hits = 0;
  {
    Table& table = GetTable();
    MutexLock lock(table.mu);
    const auto it = table.points.find(point);
    if (it != table.points.end()) {
      seed = it->second.spec.seed;
      hits = it->second.hits;
    }
  }
  // A strict prefix in [0, full_size - 1]: at least one byte is missing,
  // so the record can never round-trip whole.
  return static_cast<std::size_t>(Mix64(seed ^ (hits * 0x51ull)) % full_size);
}

void KillNow() {
  ::kill(::getpid(), SIGKILL);
  std::abort();  // unreachable unless SIGKILL delivery itself failed
}

Status ActionStatus(FaultAction action, const char* point) {
  switch (action) {
    case FaultAction::kNone:
      return OkStatus();
    case FaultAction::kEnospc:
      return InternalError(std::string("injected ENOSPC (No space left on "
                                       "device) at fault point ") +
                           point);
    case FaultAction::kError:
    case FaultAction::kTornWrite:
    case FaultAction::kKill:  // Hit() never returns kKill
      break;
  }
  return InternalError(std::string("injected fault at ") + point);
}

Status InjectedStatus(const char* point) {
  return ActionStatus(Hit(point), point);
}

}  // namespace bitruss::fault
