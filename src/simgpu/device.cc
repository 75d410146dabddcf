#include "simgpu/device.h"

#include <string>

#include "chaos/fault.h"
#include "common/timer.h"
#include "obs/obs.h"

namespace smiler {
namespace simgpu {

Status Device::Launch(const char* name, int grid_dim, int block_dim,
                      const Kernel& kernel) {
  if (grid_dim < 0 || block_dim <= 0) {
    return Status::InvalidArgument("grid_dim must be >= 0, block_dim > 0");
  }
  if (grid_dim == 0) return Status::OK();
  SMILER_INJECT_FAULT(
      "simgpu.launch",
      Status::Internal(std::string("injected launch failure: ") + name));

  // Per-kernel profiling instruments: one registry lookup per launch; the
  // per-block work below touches only the resolved references.
  obs::Registry& reg = obs::Registry::Global();
  const std::string prefix = std::string("simgpu.kernel.") + name;
  reg.GetCounter(prefix + ".launches").Increment();
  obs::Histogram& block_seconds = reg.GetHistogram(prefix + ".block_seconds");
  obs::Gauge& kernel_high_water =
      reg.GetGauge(prefix + ".shared_high_water_bytes");
  static obs::Gauge& device_high_water =
      reg.GetGauge("simgpu.shared_memory.high_water_bytes");
  obs::ScopedSpan span(name);

  pool_->ParallelFor(
      static_cast<std::size_t>(grid_dim), [&](std::size_t block) {
        // Each block owns its shared-memory arena, like a CUDA SM
        // assigning shared memory per resident block. Nothing is
        // allocated until the kernel's first Alloc, and nothing is
        // zeroed: CUDA shared memory starts undefined too.
        SharedMemory shared(shared_bytes_);
        BlockContext ctx;
        ctx.block_id = static_cast<int>(block);
        ctx.grid_dim = grid_dim;
        ctx.block_dim = block_dim;
        ctx.shared = &shared;
        WallTimer timer;
        kernel(ctx);
        block_seconds.Observe(timer.ElapsedSeconds());
        const double peak = static_cast<double>(shared.high_water());
        kernel_high_water.SetMax(peak);
        device_high_water.SetMax(peak);
      });
  return Status::OK();
}

Status Device::AllocateBytes(std::size_t bytes) {
  SMILER_INJECT_FAULT(
      "simgpu.alloc",
      Status::ResourceExhausted("injected device allocation failure: request=" +
                                std::to_string(bytes)));
  std::size_t current = used_.load();
  for (;;) {
    if (current + bytes > budget_) {
      return Status::ResourceExhausted(
          "device memory budget exceeded: used=" + std::to_string(current) +
          " request=" + std::to_string(bytes) +
          " budget=" + std::to_string(budget_));
    }
    if (used_.compare_exchange_weak(current, current + bytes)) {
      return Status::OK();
    }
  }
}

void Device::FreeBytes(std::size_t bytes) {
  used_.fetch_sub(bytes);
}

}  // namespace simgpu
}  // namespace smiler
