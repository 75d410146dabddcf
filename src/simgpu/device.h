#ifndef SMILER_SIMGPU_DEVICE_H_
#define SMILER_SIMGPU_DEVICE_H_

#include <atomic>
#include <cstddef>

#include "common/status.h"
#include "common/thread_pool.h"
#include "simgpu/backend.h"
#include "simgpu/kernel_context.h"

namespace smiler {
namespace simgpu {

/// \brief Simulated GPU device: launches grids of blocks over a CPU thread
/// pool and accounts "device memory" against a configurable budget.
///
/// Substitution note (DESIGN.md section 1): this preserves the paper's work
/// decomposition — one block per sliding window / CSG / k-selection — while
/// executing on the host. Memory accounting powers the Fig 12(c) capacity
/// study.
class Device {
 public:
  /// \param memory_budget_bytes simulated device memory (default 6 GiB,
  ///        the paper's GTX TITAN).
  /// \param shared_memory_bytes per-block shared memory (default 64 KiB).
  /// \param pool thread pool to run blocks on (default process pool).
  ///
  /// The fourth parameter is ignored: the simulated grid is the only
  /// execution path. It stays for perfbench/main.cc, which still passes
  /// BackendKind::kSimGrid; the next change to perfbench/ deletes both.
  explicit Device(std::size_t memory_budget_bytes = 6ULL << 30,
                  std::size_t shared_memory_bytes = 64ULL << 10,
                  ThreadPool* pool = nullptr,
                  BackendKind /*unused*/ = BackendKind::kSimGrid)
      : budget_(memory_budget_bytes),
        shared_bytes_(shared_memory_bytes),
        pool_(pool != nullptr ? pool : &ThreadPool::Default()) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Launches \p grid_dim blocks of \p block_dim lanes running \p kernel.
  /// Blocks execute concurrently over the pool, each with its own
  /// BlockContext and SharedMemory arena; the call returns after all
  /// blocks completed (stream-synchronous semantics).
  ///
  /// \p name identifies the kernel for profiling (a string literal, e.g.
  /// "index.verify_dtw"): each launch opens a tracing span and feeds the
  /// per-kernel `simgpu.kernel.<name>.*` metrics — launch count, per-block
  /// wall-time histogram, and the SharedMemory high-water gauge.
  Status Launch(const char* name, int grid_dim, int block_dim,
                const Kernel& kernel);

  /// Unnamed launch; profiled under the kernel name "anonymous".
  Status Launch(int grid_dim, int block_dim, const Kernel& kernel) {
    return Launch("anonymous", grid_dim, block_dim, kernel);
  }

  /// Reserves \p bytes of device memory. Fails with ResourceExhausted when
  /// the budget would be exceeded.
  Status AllocateBytes(std::size_t bytes);
  /// Releases \p bytes previously reserved.
  void FreeBytes(std::size_t bytes);

  std::size_t memory_used() const { return used_.load(); }
  std::size_t memory_budget() const { return budget_; }
  std::size_t shared_memory_bytes() const { return shared_bytes_; }
  /// Upper bound on useful concurrent blocks or strips: the device pool's
  /// workers plus the calling thread (ParallelFor callers participate).
  std::size_t parallelism() const { return pool_->size() + 1; }

 private:
  std::size_t budget_;
  std::size_t shared_bytes_;
  ThreadPool* pool_;
  std::atomic<std::size_t> used_{0};
};

}  // namespace simgpu
}  // namespace smiler

#endif  // SMILER_SIMGPU_DEVICE_H_
