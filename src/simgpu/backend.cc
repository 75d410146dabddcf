#include "simgpu/backend.h"

#include <cstdlib>
#include <string>

#include "common/timer.h"
#include "obs/obs.h"

namespace smiler {
namespace simgpu {

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSimGrid:
      return "simgpu";
    case BackendKind::kNative:
      return "native";
  }
  return "unknown";
}

Result<BackendKind> ParseBackendKind(std::string_view name) {
  if (name == "simgpu") return BackendKind::kSimGrid;
  if (name == "native") return BackendKind::kNative;
  return Status::InvalidArgument(
      "unknown SMILER_BACKEND value '" + std::string(name) +
      "' (expected \"simgpu\" or \"native\")");
}

Result<BackendKind> BackendKindFromEnv() {
  const char* env = std::getenv("SMILER_BACKEND");
  if (env == nullptr || env[0] == '\0') return BackendKind::kSimGrid;
  return ParseBackendKind(env);
}

namespace {

/// The simulated-grid execution: one private SharedMemory arena and
/// BlockContext per block, blocks fanned over the device pool, a
/// wall-time observation and high-water update per block.
class SimGridBackend final : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::kSimGrid; }

  void Execute(const LaunchSpec& spec) const override {
    const std::size_t shared_bytes = spec.shared_bytes;
    const int grid_dim = spec.grid_dim;
    const int block_dim = spec.block_dim;
    const Kernel& kernel = *spec.grid;
    spec.pool->ParallelFor(
        static_cast<std::size_t>(grid_dim), [&](std::size_t block) {
          // Each block owns its shared-memory arena, like a CUDA SM
          // assigning shared memory per resident block. Nothing is
          // allocated until the kernel's first Alloc, and nothing is
          // zeroed: CUDA shared memory starts undefined too.
          SharedMemory shared(shared_bytes);
          BlockContext ctx;
          ctx.block_id = static_cast<int>(block);
          ctx.grid_dim = grid_dim;
          ctx.block_dim = block_dim;
          ctx.shared = &shared;
          WallTimer timer;
          kernel(ctx);
          spec.block_seconds->Observe(timer.ElapsedSeconds());
          const double peak = static_cast<double>(shared.high_water());
          spec.kernel_high_water->SetMax(peak);
          spec.device_high_water->SetMax(peak);
        });
  }
};

/// Straight-line native execution for migrated kernels; launches that
/// carry no native body fall back to the grid emulation so unmigrated
/// call sites behave identically under either backend selection.
///
/// Profiling degrades gracefully rather than vanishing: the launch still
/// counts under the same `simgpu.kernel.<name>.*` names, with one
/// whole-kernel wall-time observation into `.block_seconds` per launch
/// (there are no blocks to time individually). SharedMemory high-water
/// gauges simply do not advance — native kernels use no arenas.
class NativeBackend final : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::kNative; }

  void Execute(const LaunchSpec& spec) const override {
    if (spec.native == nullptr) {
      Backend::Get(BackendKind::kSimGrid)->Execute(spec);
      return;
    }
    NativeContext ctx(spec.pool, spec.grid_dim, spec.block_dim);
    WallTimer timer;
    (*spec.native)(ctx);
    spec.block_seconds->Observe(timer.ElapsedSeconds());
  }
};

}  // namespace

const Backend* Backend::Get(BackendKind kind) {
  static const SimGridBackend sim_grid;
  static const NativeBackend native;
  switch (kind) {
    case BackendKind::kSimGrid:
      return &sim_grid;
    case BackendKind::kNative:
      return &native;
  }
  return &sim_grid;
}

}  // namespace simgpu
}  // namespace smiler
