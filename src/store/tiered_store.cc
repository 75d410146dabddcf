#include "store/tiered_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "chaos/fault.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace smiler {
namespace store {

namespace {

obs::Gauge& ResidentBytesGauge() {
  static obs::Gauge& g =
      obs::Registry::Global().GetGauge("store.resident_bytes");
  return g;
}

obs::Gauge& ResidentBytesHighWaterGauge() {
  static obs::Gauge& g =
      obs::Registry::Global().GetGauge("store.resident_bytes_high_water");
  return g;
}

obs::Gauge& BudgetBytesGauge() {
  static obs::Gauge& g = obs::Registry::Global().GetGauge("store.budget_bytes");
  return g;
}

obs::Counter& EvictionsCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("store.evictions");
  return c;
}

obs::Counter& EvictFailuresCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("store.evict_failures");
  return c;
}

obs::Counter& RehydrationsCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("store.rehydrations");
  return c;
}

obs::Histogram& RehydrateSecondsHistogram() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("store.rehydrate_seconds");
  return h;
}

/// What a resident engine costs against the budget: its index footprint
/// (series, envelopes, posting-list arena) — the same accounting that
/// powers the Fig 12(c) capacity study.
std::size_t EngineFootprintBytes(const core::SensorEngine& engine) {
  return engine.index().MemoryFootprintBytes();
}

}  // namespace

Result<std::size_t> ParseStoreBudget(std::string_view text) {
  const std::string s(text);
  if (!s.empty() && s.find_first_not_of("0123456789") == std::string::npos) {
    errno = 0;
    char* rest = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &rest, 10);
    if (errno == 0 && rest != nullptr && *rest == '\0' &&
        v <= std::numeric_limits<std::size_t>::max()) {
      return static_cast<std::size_t>(v);
    }
  }
  return Status::InvalidArgument(
      "unknown SMILER_STORE_BUDGET_BYTES value '" + s +
      "' (expected a decimal byte count, e.g. 6442450944)");
}

Result<std::size_t> StoreBudgetFromEnv() {
  const char* value = std::getenv("SMILER_STORE_BUDGET_BYTES");
  if (value == nullptr || value[0] == '\0') {
    return std::numeric_limits<std::size_t>::max();  // unlimited
  }
  return ParseStoreBudget(value);
}

TieredStateStore::TieredStateStore(StoreOptions options, std::size_t budget,
                                   Status env_status)
    : opt_(std::move(options)), budget_(budget),
      env_status_(std::move(env_status)) {}

Result<std::unique_ptr<TieredStateStore>> TieredStateStore::Create(
    const StoreOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("store spill directory must be set");
  }
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("cannot create store directory '" + options.dir +
                            "'");
  }
  struct stat st;
  if (::stat(options.dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("store path '" + options.dir +
                                   "' is not a directory");
  }
  std::size_t budget = options.budget_bytes;
  Status env_status = Status::OK();
  if (budget == 0) {
    // Fail-fast env contract: an invalid value does not fall back to a
    // default — the store constructs, but every operation returns the
    // parse error until the env is fixed.
    auto from_env = StoreBudgetFromEnv();
    if (from_env.ok()) {
      budget = *from_env;
    } else {
      env_status = from_env.status();
    }
  }
  std::unique_ptr<TieredStateStore> store(
      new TieredStateStore(options, budget, std::move(env_status)));
  BudgetBytesGauge().Set(
      budget == std::numeric_limits<std::size_t>::max()
          ? 0.0  // unlimited renders as 0 (no budget) in the exposition
          : static_cast<double>(budget));
  return store;
}

Status TieredStateStore::Bind(core::MultiSensorManager* manager,
                              simgpu::Device* device) {
  SMILER_RETURN_NOT_OK(env_status_);
  if (manager == nullptr || device == nullptr) {
    return Status::InvalidArgument("store needs a manager and a device");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (manager_ != nullptr) {
    return Status::FailedPrecondition("store is already bound to a fleet");
  }
  for (std::size_t i = 0; i < manager->num_sensors(); ++i) {
    if (!manager->resident(i)) {
      return Status::FailedPrecondition(
          "store binds to fully-resident fleets only");
    }
  }
  manager_ = manager;
  device_ = device;
  slots_.assign(manager->num_sensors(), Slot{});
  resident_bytes_ = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].bytes = EngineFootprintBytes(manager->engine(i));
    resident_bytes_ += slots_[i].bytes;
  }
  PublishGaugesLocked();
  return Status::OK();
}

std::string TieredStateStore::SegmentPath(std::size_t sensor) const {
  return opt_.dir + "/sensor-" + std::to_string(sensor) + ".seg";
}

Status TieredStateStore::CheckUsableLocked(std::size_t sensor) const {
  SMILER_RETURN_NOT_OK(env_status_);
  if (manager_ == nullptr) {
    return Status::FailedPrecondition("store is not bound to a fleet");
  }
  if (sensor >= slots_.size()) {
    return Status::OutOfRange("sensor index out of range");
  }
  return Status::OK();
}

void TieredStateStore::PublishGaugesLocked() {
  ResidentBytesGauge().Set(static_cast<double>(resident_bytes_));
  ResidentBytesHighWaterGauge().SetMax(static_cast<double>(resident_bytes_));
}

Status TieredStateStore::Pin(std::size_t sensor) {
  std::lock_guard<std::mutex> lock(mu_);
  SMILER_RETURN_NOT_OK(CheckUsableLocked(sensor));
  Slot& slot = slots_[sensor];
  if (!slot.resident) {
    SMILER_RETURN_NOT_OK(RehydrateLocked(sensor));
  }
  ++slot.pins;
  slot.ref = true;
  return Status::OK();
}

void TieredStateStore::Unpin(std::size_t sensor) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sensor < slots_.size() && slots_[sensor].pins > 0) {
    --slots_[sensor].pins;
  }
}

Status TieredStateStore::Evict(std::size_t sensor) {
  std::lock_guard<std::mutex> lock(mu_);
  SMILER_RETURN_NOT_OK(CheckUsableLocked(sensor));
  if (!slots_[sensor].resident) return Status::OK();
  return EvictLocked(sensor);
}

Status TieredStateStore::EvictLocked(std::size_t sensor) {
  Slot& slot = slots_[sensor];
  if (slot.pins > 0) {
    return Status::FailedPrecondition("sensor is pinned");
  }
  const std::string blob = core::SerializeSnapshotBlob(
      {manager_->engine(sensor).Snapshot()},
      core::ArenaEncoding::kQuantized16);

  // Atomic segment write: tmp + rename, so a crash (or the injected torn
  // write) never clobbers a previous good segment.
  const std::string path = SegmentPath(sensor);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) {
      EvictFailuresCounter().Increment();
      return Status::Internal("cannot open '" + tmp + "' for writing");
    }
    if (SMILER_FAULT_TRIGGERED("store.spill_write")) {
      // Torn write: half the segment reaches the tmp file and the spill
      // fails — the engine stays resident (budget temporarily exceeded
      // is safe; losing state is not) and any previous segment survives.
      file.write(blob.data(), static_cast<std::streamsize>(blob.size() / 2));
      file.flush();
      EvictFailuresCounter().Increment();
      return Status::Internal("write to '" + tmp + "' failed");
    }
    file.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    file.flush();
    if (!file.good()) {
      EvictFailuresCounter().Increment();
      return Status::Internal("write to '" + tmp + "' failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    EvictFailuresCounter().Increment();
    return Status::Internal("rename '" + tmp + "' -> '" + path + "' failed");
  }

  SMILER_ASSIGN_OR_RETURN(core::SensorEngine engine,
                          manager_->Release(sensor));
  (void)engine;  // dropped here: the cold tier now owns the state
  slot.resident = false;
  slot.has_segment = true;
  slot.ref = false;
  resident_bytes_ -= slot.bytes;
  EvictionsCounter().Increment();
  PublishGaugesLocked();
  return Status::OK();
}

Status TieredStateStore::RehydrateLocked(std::size_t sensor) {
  Slot& slot = slots_[sensor];
  WallTimer timer;
  SMILER_ASSIGN_OR_RETURN(std::vector<core::EngineSnapshot> snaps,
                          ReadSegmentLocked(sensor, /*inject_fault=*/true));
  if (snaps.size() != 1) {
    return Status::InvalidArgument("spill segment for sensor " +
                                   std::to_string(sensor) +
                                   " does not hold exactly one engine");
  }
  SMILER_ASSIGN_OR_RETURN(core::SensorEngine engine,
                          core::SensorEngine::Restore(device_, snaps[0]));
  slot.bytes = EngineFootprintBytes(engine);
  SMILER_RETURN_NOT_OK(manager_->Install(sensor, std::move(engine)));
  slot.resident = true;
  slot.has_segment = false;
  // The segment is stale the moment the engine observes again; drop it
  // so a later eviction can never resurrect old state.
  std::remove(SegmentPath(sensor).c_str());
  resident_bytes_ += slot.bytes;
  RehydrationsCounter().Increment();
  RehydrateSecondsHistogram().Observe(timer.ElapsedSeconds());
  PublishGaugesLocked();
  return Status::OK();
}

Result<std::vector<core::EngineSnapshot>> TieredStateStore::ReadSegmentLocked(
    std::size_t sensor, bool inject_fault) const {
  const std::string path = SegmentPath(sensor);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open spill segment '" + path + "'");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal("cannot stat spill segment '" + path + "'");
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::InvalidArgument("spill segment '" + path + "' is empty");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::Internal("cannot mmap spill segment '" + path + "'");
  }
  std::size_t parse_size = size;
  if (inject_fault && SMILER_FAULT_TRIGGERED("store.rehydrate_read_short")) {
    // Short read: the parser must turn the truncation into a Status (the
    // Pin fails, the cold state stays intact, the next batch retries) —
    // never an OK result carrying a partial engine.
    parse_size = size / 2;
  }
  auto parsed = core::ParseSnapshotBlob(static_cast<const char*>(map),
                                        parse_size, path);
  ::munmap(map, size);
  return parsed;
}

Status TieredStateStore::EnforceBudget() {
  std::lock_guard<std::mutex> lock(mu_);
  SMILER_RETURN_NOT_OK(env_status_);
  if (manager_ == nullptr) {
    return Status::FailedPrecondition("store is not bound to a fleet");
  }
  Status first_error = Status::OK();
  // Clock sweep with second chance: a recently-pinned slot gets its ref
  // bit cleared on the first pass and is only evicted when seen again.
  // Two full revolutions bound the scan; a failed spill marks the slot
  // referenced so the sweep moves on instead of retrying it forever.
  std::size_t scanned = 0;
  const std::size_t scan_limit = 2 * slots_.size();
  while (resident_bytes_ > budget_ && scanned < scan_limit) {
    Slot& slot = slots_[clock_hand_];
    const std::size_t victim = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % slots_.size();
    ++scanned;
    if (!slot.resident || slot.pins > 0) continue;
    if (slot.ref) {
      slot.ref = false;
      continue;
    }
    const Status st = EvictLocked(victim);
    if (!st.ok()) {
      if (first_error.ok()) first_error = st;
      slot.ref = true;
    }
  }
  return first_error;
}

Result<core::EngineSnapshot> TieredStateStore::StableSnapshot(
    std::size_t sensor) {
  std::lock_guard<std::mutex> lock(mu_);
  SMILER_RETURN_NOT_OK(CheckUsableLocked(sensor));
  if (slots_[sensor].resident) {
    return manager_->engine(sensor).Snapshot();
  }
  // Snapshot barriers read the cold tier without the rehydrate fault
  // point: segments are only ever published complete (a torn spill never
  // renames), so a checkpoint of a partly-cold fleet stays dependable
  // even mid fault-storm.
  SMILER_ASSIGN_OR_RETURN(std::vector<core::EngineSnapshot> snaps,
                          ReadSegmentLocked(sensor, /*inject_fault=*/false));
  if (snaps.size() != 1) {
    return Status::InvalidArgument("spill segment for sensor " +
                                   std::to_string(sensor) +
                                   " does not hold exactly one engine");
  }
  return std::move(snaps[0]);
}

bool TieredStateStore::resident(std::size_t sensor) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sensor < slots_.size() && slots_[sensor].resident;
}

std::size_t TieredStateStore::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

std::size_t TieredStateStore::num_sensors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

std::vector<TieredStateStore::SlotInfo> TieredStateStore::Inspect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SlotInfo> out(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    out[i].resident = slots_[i].resident;
    out[i].engine_present = manager_ != nullptr && manager_->resident(i);
    out[i].pins = slots_[i].pins;
    out[i].bytes = slots_[i].bytes;
    out[i].has_segment = slots_[i].has_segment;
  }
  return out;
}

}  // namespace store
}  // namespace smiler
