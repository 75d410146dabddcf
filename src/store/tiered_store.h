#ifndef SMILER_STORE_TIERED_STORE_H_
#define SMILER_STORE_TIERED_STORE_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "core/manager.h"
#include "core/snapshot_codec.h"
#include "simgpu/device.h"

namespace smiler {
namespace store {

/// Parses a SMILER_STORE_BUDGET_BYTES-style value: a plain decimal byte
/// count (e.g. "6442450944" for the paper's 6 GiB device). Anything else
/// fails with InvalidArgument — fail fast, no silent default.
Result<std::size_t> ParseStoreBudget(std::string_view text);

/// Resolves the byte budget from SMILER_STORE_BUDGET_BYTES. Unset or
/// empty means "unlimited"; an invalid value is an error the store
/// caches at construction and returns from every subsequent operation.
Result<std::size_t> StoreBudgetFromEnv();

struct StoreOptions {
  /// Spill-segment directory; created on Create when absent.
  std::string dir;
  /// Resident-byte budget. 0 = consult SMILER_STORE_BUDGET_BYTES
  /// (unset env = unlimited).
  std::size_t budget_bytes = 0;
};

/// \brief Owns engine-state residency for a MultiSensorManager fleet
/// under a configurable byte budget — the tiered-storage answer to the
/// Fig 12(c) "millions of sensors" capacity argument.
///
/// Residency state machine (docs/architecture.md §Tiered storage):
///
///   RESIDENT --Evict/EnforceBudget--> COLD --Pin--> RESIDENT
///
/// A RESIDENT sensor holds a live SensorEngine in the manager slot and
/// is charged its index footprint against the budget. A COLD sensor's
/// engine has been serialized to an mmap'd spill segment (SMLRCKPT wire
/// format with the 16-bit quantized arena encoding — see
/// core::ArenaEncoding::kQuantized16 for why rehydrated predictions stay
/// bitwise-identical) and its manager slot is empty. Segments are
/// written atomically (tmp + rename, per-engine FNV-1a checksums); a
/// torn write (`store.spill_write` fault) aborts the eviction with the
/// engine still resident and the previous segment intact, and a short
/// read (`store.rehydrate_read_short` fault) fails the Pin with the cold
/// state intact — both are transient, retried on the next batch.
///
/// Thread model: one internal mutex serializes every residency mutation;
/// shard workers Pin every distinct sensor of a batch before touching
/// its engine and Unpin afterwards, and pinned sensors are never
/// evictable. EnforceBudget demotes unpinned sensors with a clock
/// (second-chance) sweep — Pin sets the reference bit, a first sweep
/// pass clears it, a second evicts — until resident bytes fit the
/// budget.
class TieredStateStore {
 public:
  static Result<std::unique_ptr<TieredStateStore>> Create(
      const StoreOptions& options);

  /// Binds the store to a fleet. Every sensor starts RESIDENT; call
  /// EnforceBudget to demote down to the budget. \p device receives the
  /// rehydrated engines' memory charges (the fleet's shared device).
  Status Bind(core::MultiSensorManager* manager, simgpu::Device* device);

  /// Marks \p sensor in-use, rehydrating it first when COLD. Pins nest;
  /// every Pin needs a matching Unpin.
  Status Pin(std::size_t sensor);
  void Unpin(std::size_t sensor);

  /// Explicitly demotes one unpinned RESIDENT sensor to the cold tier.
  /// OK (no-op) when already COLD; FailedPrecondition when pinned.
  Status Evict(std::size_t sensor);

  /// Clock-sweeps unpinned residents to the cold tier until resident
  /// bytes fit the budget (or nothing evictable remains). Returns the
  /// first eviction failure, if any — residency stays consistent either
  /// way, the budget is just temporarily exceeded.
  Status EnforceBudget();

  /// A point-in-time snapshot of \p sensor regardless of residency:
  /// RESIDENT engines snapshot directly, COLD sensors decode their spill
  /// segment. Callers must hold the same quiescence the engine's own
  /// Snapshot() requires (serve-layer snapshot barriers do).
  Result<core::EngineSnapshot> StableSnapshot(std::size_t sensor);

  bool resident(std::size_t sensor) const;
  std::size_t resident_bytes() const;
  std::size_t budget_bytes() const { return budget_; }
  std::size_t num_sensors() const;

  /// Residency bookkeeping exposed for the chaos InvariantChecker
  /// (store/engine residency agreement) and tests.
  struct SlotInfo {
    bool resident = false;
    bool engine_present = false;  // manager-slot view, must agree
    int pins = 0;
    std::size_t bytes = 0;  // charged against the budget when resident
    bool has_segment = false;
  };
  std::vector<SlotInfo> Inspect() const;

 private:
  explicit TieredStateStore(StoreOptions options, std::size_t budget,
                            Status env_status);

  struct Slot {
    bool resident = true;
    int pins = 0;
    bool ref = false;  // clock (second-chance) reference bit
    std::size_t bytes = 0;
    bool has_segment = false;
  };

  std::string SegmentPath(std::size_t sensor) const;
  Status CheckUsableLocked(std::size_t sensor) const;
  Status EvictLocked(std::size_t sensor);
  Status RehydrateLocked(std::size_t sensor);
  Result<std::vector<core::EngineSnapshot>> ReadSegmentLocked(
      std::size_t sensor, bool inject_fault) const;
  void PublishGaugesLocked();

  const StoreOptions opt_;
  const std::size_t budget_;
  const Status env_status_;  // poisons every op when the env var is bad

  mutable std::mutex mu_;
  core::MultiSensorManager* manager_ = nullptr;
  simgpu::Device* device_ = nullptr;
  std::vector<Slot> slots_;
  std::size_t resident_bytes_ = 0;
  std::size_t clock_hand_ = 0;
};

}  // namespace store
}  // namespace smiler

#endif  // SMILER_STORE_TIERED_STORE_H_
