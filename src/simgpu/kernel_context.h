#ifndef SMILER_SIMGPU_KERNEL_CONTEXT_H_
#define SMILER_SIMGPU_KERNEL_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>

#include "chaos/fault.h"

namespace smiler {
namespace simgpu {

/// \brief Per-block scratch arena standing in for CUDA shared memory.
///
/// The paper stores the compressed DTW warping matrix and the query in
/// shared memory (Appendix E); kernels written against this arena exercise
/// the same capacity constraint (default 64 KiB, matching the paper's note
/// "up to 64KB"). As in CUDA, the contents start uninitialized: the arena
/// is allocated on the first Alloc and never zero-filled, so a block that
/// uses no shared memory costs nothing and kernels must write before they
/// read.
class SharedMemory {
 public:
  explicit SharedMemory(std::size_t capacity_bytes)
      : capacity_(capacity_bytes), used_(0), high_water_(0) {}

  /// Bump-allocates \p count elements of T. Returns nullptr when the
  /// request exceeds the remaining capacity (kernel authors must treat
  /// this like exceeding CUDA shared memory: restructure the kernel or
  /// fall back to global/heap memory).
  template <typename T>
  T* Alloc(std::size_t count) {
    if (SMILER_FAULT_TRIGGERED("shared_mem.alloc")) return nullptr;
    if (data_ == nullptr) {
      data_ = std::make_unique_for_overwrite<std::byte[]>(capacity_);
    }
    const std::size_t align = alignof(T);
    // Align the absolute address, not just the offset: the arena base is
    // only guaranteed new-aligned, so an over-aligned T must shift its
    // first allocation relative to the base.
    const auto base = reinterpret_cast<std::uintptr_t>(data_.get());
    const std::uintptr_t aligned = (base + used_ + align - 1) / align * align;
    const std::size_t offset = static_cast<std::size_t>(aligned - base);
    if (offset > capacity_) return nullptr;
    // Divide instead of multiplying: `count * sizeof(T)` can wrap, which
    // would hand out a pointer into a too-small arena.
    if (count > (capacity_ - offset) / sizeof(T)) return nullptr;
    used_ = offset + count * sizeof(T);
    if (used_ > high_water_) high_water_ = used_;
    return reinterpret_cast<T*>(data_.get() + offset);
  }

  /// Releases all allocations (block exit). The high-water mark survives.
  void Reset() { used_ = 0; }

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return used_; }
  /// Largest `used()` ever reached — the arena's occupancy profile. Never
  /// exceeds capacity() (over-capacity Allocs fail instead of counting).
  std::size_t high_water() const { return high_water_; }

 private:
  std::unique_ptr<std::byte[]> data_;
  std::size_t capacity_;
  std::size_t used_;
  std::size_t high_water_;
};

/// \brief Execution context handed to a kernel, one per thread block.
///
/// Lanes model CUDA threads. `ForEachLane(fn)` runs `fn(lane)` for every
/// lane of the block; consecutive ForEachLane calls are separated by an
/// implicit block-wide barrier (the SIMD phases our kernels need map onto
/// this structure exactly — see DESIGN.md S3).
struct BlockContext {
  int block_id = 0;
  int grid_dim = 1;
  int block_dim = 1;
  SharedMemory* shared = nullptr;

  template <typename Fn>
  void ForEachLane(Fn&& fn) const {
    for (int lane = 0; lane < block_dim; ++lane) fn(lane);
  }

  /// Grid-stride style helper: runs `fn(i)` for every i in [0, n) with the
  /// block's lanes striding over the range (i = lane, lane+block_dim, ...).
  template <typename Fn>
  void StridedFor(std::size_t n, Fn&& fn) const {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
};

/// A kernel is invoked once per block.
using Kernel = std::function<void(BlockContext&)>;

}  // namespace simgpu
}  // namespace smiler

#endif  // SMILER_SIMGPU_KERNEL_CONTEXT_H_
