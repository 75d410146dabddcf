#ifndef SMILER_SIMGPU_DEVICE_H_
#define SMILER_SIMGPU_DEVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "chaos/fault.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "simgpu/backend.h"
#include "simgpu/kernel_context.h"

namespace smiler {
namespace simgpu {

/// \brief Counters describing the work a Device has executed. Atomic
/// because independent host threads may Launch concurrently (e.g. the
/// per-item-query fan-out in SmilerIndex::Search).
struct DeviceStats {
  std::atomic<std::uint64_t> kernels_launched{0};
  std::atomic<std::uint64_t> blocks_executed{0};
};

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
  /// The execution backend is resolved from SMILER_BACKEND at
  /// construction (unset/empty selects the simulated grid). An unknown
  /// value does not fall back silently: the resolution error is stored
  /// and every Launch fails with it (kInvalidArgument).
  explicit Device(std::size_t memory_budget_bytes = 6ULL << 30,
                  std::size_t shared_memory_bytes = 64ULL << 10,
                  ThreadPool* pool = nullptr)
      : budget_(memory_budget_bytes),
        shared_bytes_(shared_memory_bytes),
        pool_(pool != nullptr ? pool : &ThreadPool::Default()) {
    Result<BackendKind> kind = BackendKindFromEnv();
    if (kind.ok()) {
      backend_ = Backend::Get(*kind);
    } else {
      backend_status_ = kind.status();
    }
  }

  /// Constructs with an explicit backend, ignoring SMILER_BACKEND (used
  /// by the forced-backend test fixtures and the equivalence suites).
  Device(std::size_t memory_budget_bytes, std::size_t shared_memory_bytes,
         ThreadPool* pool, BackendKind backend)
      : budget_(memory_budget_bytes),
        shared_bytes_(shared_memory_bytes),
        pool_(pool != nullptr ? pool : &ThreadPool::Default()),
        backend_(Backend::Get(backend)) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Launches \p grid_dim blocks of \p block_dim lanes running \p kernel.
  /// Blocks execute concurrently over the pool; the call returns after all
  /// blocks completed (stream-synchronous semantics).
  ///
  /// \p name identifies the kernel for profiling (a string literal, e.g.
  /// "index.verify_dtw"): each launch opens a tracing span and feeds the
  /// per-kernel `simgpu.kernel.<name>.*` metrics — launch count, per-block
  /// wall-time histogram, and the SharedMemory high-water gauge — under
  /// every backend.
  Status Launch(const char* name, int grid_dim, int block_dim,
                const Kernel& kernel) {
    return LaunchImpl(name, grid_dim, block_dim, kernel, nullptr);
  }

  /// Launch with a native body: the native backend executes \p native as
  /// one straight-line call (no block emulation); the simulated-grid
  /// backend ignores it and runs \p kernel block-by-block. Both bodies
  /// must produce bitwise-identical results — the contract every migrated
  /// kernel's equivalence test pins down.
  Status Launch(const char* name, int grid_dim, int block_dim,
                const Kernel& kernel, const NativeKernel& native) {
    return LaunchImpl(name, grid_dim, block_dim, kernel, &native);
  }

  /// Unnamed launch; profiled under the kernel name "anonymous".
  Status Launch(int grid_dim, int block_dim, const Kernel& kernel) {
    return Launch("anonymous", grid_dim, block_dim, kernel);
  }

  /// The backend this device resolved at construction, or the stored
  /// kInvalidArgument when SMILER_BACKEND held an unknown value.
  Result<BackendKind> backend() const {
    if (backend_ == nullptr) return backend_status_;
    return backend_->kind();
  }

  /// Re-binds the execution backend (test hook; not thread-safe against
  /// concurrent Launch).
  void set_backend(BackendKind kind) {
    backend_ = Backend::Get(kind);
    backend_status_ = Status::OK();
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

  const DeviceStats& stats() const { return stats_; }
  void ResetStats() {
    stats_.kernels_launched.store(0);
    stats_.blocks_executed.store(0);
  }

 private:
  Status LaunchImpl(const char* name, int grid_dim, int block_dim,
                    const Kernel& kernel, const NativeKernel* native);

  std::size_t budget_;
  std::size_t shared_bytes_;
  ThreadPool* pool_;
  const Backend* backend_ = nullptr;
  Status backend_status_;  // why backend_ is null, when it is
  std::atomic<std::size_t> used_{0};
  DeviceStats stats_;
};

/// \brief Typed array living in (simulated) device memory.
///
/// Allocation is charged against the owning Device's budget; destruction
/// releases it. Host access is direct (zero-copy simulation).
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  /// Allocates \p n elements on \p device.
  static Result<DeviceBuffer<T>> Create(Device* device, std::size_t n) {
    SMILER_RETURN_NOT_OK(device->AllocateBytes(n * sizeof(T)));
    DeviceBuffer<T> buf;
    buf.device_ = device;
    buf.data_.resize(n);
    return buf;
  }

  ~DeviceBuffer() { Release(); }

  DeviceBuffer(DeviceBuffer&& other) noexcept { *this = std::move(other); }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      device_ = other.device_;
      data_ = std::move(other.data_);
      other.device_ = nullptr;
      other.data_.clear();
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  /// Grows or shrinks the buffer, adjusting the device budget. Fails when
  /// growth exceeds the budget (existing contents preserved on failure).
  /// Budget accounting stays exact on every path: a charge is refunded if
  /// the host-side resize throws, and a shrink only releases budget after
  /// the (non-throwing) resize has happened.
  Status Resize(std::size_t n) {
    if (device_ == nullptr) return Status::FailedPrecondition("unallocated");
    if (n > data_.size()) {
      const std::size_t grow_bytes = (n - data_.size()) * sizeof(T);
      SMILER_RETURN_NOT_OK(device_->AllocateBytes(grow_bytes));
      try {
        data_.resize(n);
      } catch (const std::bad_alloc&) {
        device_->FreeBytes(grow_bytes);
        return Status::ResourceExhausted(
            "host allocation failed while growing device buffer");
      }
    } else {
      const std::size_t shrink_bytes = (data_.size() - n) * sizeof(T);
      data_.resize(n);  // shrinking never allocates, hence never throws
      device_->FreeBytes(shrink_bytes);
    }
    return Status::OK();
  }

 private:
  void Release() {
    if (device_ != nullptr) {
      device_->FreeBytes(data_.size() * sizeof(T));
      device_ = nullptr;
    }
    data_.clear();
  }

  Device* device_ = nullptr;
  std::vector<T> data_;
};

}  // namespace simgpu
}  // namespace smiler

#endif  // SMILER_SIMGPU_DEVICE_H_
