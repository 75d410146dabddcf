#include "chaos/fault.h"

#include <algorithm>

namespace smiler {
namespace chaos {

namespace {

/// SplitMix64 finalizer (same constants as common/rng.h's seeding): a
/// high-quality 64-bit mix, used here so the fire/no-fire decision is a
/// pure function of (seed, point, hit).
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t Fnv1aStr(const char* s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

bool FaultRegistry::Decide(std::uint64_t seed, const char* point,
                           std::uint64_t hit, double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  const std::uint64_t mixed = Mix64(Mix64(seed ^ Fnv1aStr(point)) ^ hit);
  // Top 53 bits -> uniform double in [0, 1).
  const double u = static_cast<double>(mixed >> 11) * 0x1.0p-53;
  return u < probability;
}

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* registry = new FaultRegistry();
  return *registry;
}

void FaultRegistry::Configure(FaultSchedule schedule) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = schedule.seed;
  points_.clear();
  for (auto& [name, spec] : schedule.points) {
    FaultSpec clamped = spec;
    clamped.probability = std::clamp(clamped.probability, 0.0, 1.0);
    points_.emplace(name, PointState{clamped, 0, 0});
  }
  log_.clear();
  armed_.store(true, std::memory_order_release);
}

void FaultRegistry::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_release);
  points_.clear();
  log_.clear();
}

bool FaultRegistry::ShouldFire(const char* point) {
  if (!armed_.load(std::memory_order_acquire)) return false;
  if (paused_.load(std::memory_order_acquire) > 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  if (it == points_.end()) return false;
  PointState& st = it->second;
  const std::uint64_t hit = st.hits++;
  if (hit < st.spec.skip_first) return false;
  if (st.fired >= st.spec.max_triggers) return false;
  if (!Decide(seed_, point, hit, st.spec.probability)) return false;
  ++st.fired;
  log_.push_back(TriggerRecord{it->first, hit});
  return true;
}

std::uint64_t FaultRegistry::HitCount(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

std::uint64_t FaultRegistry::TriggerCount(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fired;
}

std::uint64_t FaultRegistry::TotalTriggers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_.size();
}

std::vector<TriggerRecord> FaultRegistry::TriggerLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

std::uint64_t FaultRegistry::Fingerprint() const {
  std::vector<TriggerRecord> sorted = TriggerLog();
  std::sort(sorted.begin(), sorted.end(),
            [](const TriggerRecord& a, const TriggerRecord& b) {
              if (a.point != b.point) return a.point < b.point;
              return a.hit < b.hit;
            });
  std::uint64_t h = 1469598103934665603ULL;
  auto mix_byte = [&h](unsigned char byte) {
    h ^= byte;
    h *= 1099511628211ULL;
  };
  for (const TriggerRecord& rec : sorted) {
    for (char ch : rec.point) mix_byte(static_cast<unsigned char>(ch));
    mix_byte('#');
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<unsigned char>(rec.hit >> (8 * i)));
    }
    mix_byte(';');
  }
  return h;
}

const std::vector<FaultPointInfo>& KnownFaultPoints() {
  static const std::vector<FaultPointInfo>* points =
      new std::vector<FaultPointInfo>{
          {"simgpu.launch", "src/simgpu",
           "Device::Launch fails with kInternal before running any block"},
          {"simgpu.alloc", "src/simgpu",
           "Device::AllocateBytes fails with kResourceExhausted regardless "
           "of the budget"},
          {"shared_mem.alloc", "src/simgpu",
           "SharedMemory::Alloc returns nullptr (kernels must fall back, "
           "as on a real GPU whose shared memory is exhausted)"},
          {"ckpt.write", "src/serve",
           "Checkpoint::Save tears the .tmp write (half the blob reaches "
           "disk) and fails with kInternal; the previous checkpoint must "
           "survive"},
          {"ckpt.rename", "src/serve",
           "Checkpoint::Save fails with kInternal instead of publishing "
           "the atomic rename; the previous checkpoint must survive"},
          {"ckpt.read_short", "src/serve",
           "Checkpoint::Load sees a truncated read (half the file); must "
           "surface a Status error, never a partially-parsed fleet"},
          {"serve.enqueue", "src/serve",
           "PredictionServer::Enqueue rejects the request with "
           "kResourceExhausted as if the shard queue were full"},
          {"serve.enqueue_ring", "src/serve",
           "the lock-free SPSC push stage reports a full ring after the "
           "capacity reservation succeeded; Enqueue must undo the "
           "reservation and reject with kResourceExhausted"},
          {"ts.anomaly", "src/chaos (driver-side)",
           "ScenarioRunner corrupts the next observed value (NaN, +inf, "
           "spike, stuck sample) before feeding it to the server"},
          {"store.spill_write", "src/store",
           "TieredStateStore::Evict tears the .tmp segment write (half the "
           "blob reaches disk) and fails with kInternal; the engine stays "
           "resident and the previous segment must survive"},
          {"store.rehydrate_read_short", "src/store",
           "TieredStateStore::Pin sees a truncated segment read (half the "
           "mapped bytes); must fail the Pin with a Status error, leaving "
           "the cold state intact for a retry on the next batch"},
      };
  return *points;
}

}  // namespace chaos
}  // namespace smiler
