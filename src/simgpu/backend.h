#ifndef SMILER_SIMGPU_BACKEND_H_
#define SMILER_SIMGPU_BACKEND_H_

#include <cstddef>
#include <functional>
#include <string_view>

#include "common/status.h"
#include "common/thread_pool.h"
#include "simgpu/kernel_context.h"

namespace smiler {
namespace obs {
class Histogram;
class Gauge;
}  // namespace obs

namespace simgpu {

/// \brief Which execution strategy a Device runs its kernel launches on.
///
/// kSimGrid is the simulated-GPU grid: one BlockContext + private
/// SharedMemory arena per block (allocated on its first Alloc, contents
/// uninitialized as in CUDA), blocks fanned over the device pool.
/// kNative executes a kernel's straight-line native body (when the launch
/// site supplies one) with no block emulation at all: no arenas, no
/// per-block timers, flat vectorizable loops. Every migrated kernel is
/// bitwise-identical across backends (docs/performance.md "Execution
/// backends").
enum class BackendKind {
  kSimGrid,
  kNative,
};

/// Canonical lowercase name ("simgpu" / "native") — the accepted values of
/// the SMILER_BACKEND environment variable and the `backend` field of the
/// BENCH_*.json reports.
const char* BackendKindName(BackendKind kind);

/// Parses a SMILER_BACKEND value. Unknown strings fail with
/// kInvalidArgument — never a silent fallback to a default.
Result<BackendKind> ParseBackendKind(std::string_view name);

/// Resolves the process-wide backend selection from SMILER_BACKEND.
/// Unset or empty resolves to kSimGrid (the default backend); any other
/// value must parse or the error propagates to every launch.
Result<BackendKind> BackendKindFromEnv();

/// \brief Execution context handed to a native kernel — the whole launch
/// at once, not one block.
///
/// A native kernel owns the full iteration space of its launch and is free
/// to batch, tile, and vectorize across what the grid backend treats as
/// block boundaries. ParallelFor distributes coarse strips over the same
/// device pool grid launches use (and degrades to inline execution when
/// nested inside a pool worker, exactly like a grid launch), so the
/// deadlock-freedom story is unchanged.
class NativeContext {
 public:
  NativeContext(ThreadPool* pool, int grid_dim, int block_dim)
      : pool_(pool), grid_dim_(grid_dim), block_dim_(block_dim) {}

  /// The launch geometry the call site requested. Native kernels may use
  /// it as a work-size hint; nothing forces a block decomposition.
  int grid_dim() const { return grid_dim_; }
  int block_dim() const { return block_dim_; }

  /// Runs fn(i) for every i in [0, n) over the device pool.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
    pool_->ParallelFor(n, fn);
  }

 private:
  ThreadPool* pool_;
  int grid_dim_;
  int block_dim_;
};

/// Native body of a kernel launch. Optional per launch site: sites that
/// have not been migrated pass none and run the grid emulation under every
/// backend.
using NativeKernel = std::function<void(NativeContext&)>;

/// \brief Everything a backend needs to execute one launch. Validation,
/// chaos injection, stats, and per-kernel profiling bookkeeping stay in
/// Device::Launch (identical under every backend — satellite requirement:
/// dashboards keyed on `simgpu.kernel.<name>.*` keep working); the backend
/// owns only the execution strategy.
struct LaunchSpec {
  const char* name = nullptr;
  int grid_dim = 0;
  int block_dim = 0;
  std::size_t shared_bytes = 0;
  ThreadPool* pool = nullptr;
  const Kernel* grid = nullptr;          // never null
  const NativeKernel* native = nullptr;  // null when the site is unmigrated
  // Profiling sinks resolved once per launch by Device::Launch.
  obs::Histogram* block_seconds = nullptr;
  obs::Gauge* kernel_high_water = nullptr;
  obs::Gauge* device_high_water = nullptr;
};

/// \brief Execution-strategy interface behind Device::Launch.
///
/// Implementations are stateless singletons (obtain via Get); a Device
/// binds one at construction from SMILER_BACKEND and may be re-bound by
/// tests through Device::set_backend.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual BackendKind kind() const = 0;
  /// Runs the launch to completion (stream-synchronous, like the
  /// historical Device::Launch body).
  virtual void Execute(const LaunchSpec& spec) const = 0;

  /// The process-wide singleton implementing \p kind.
  static const Backend* Get(BackendKind kind);
};

}  // namespace simgpu
}  // namespace smiler

#endif  // SMILER_SIMGPU_BACKEND_H_
