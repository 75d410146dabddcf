#ifndef SMILER_SIMGPU_BACKEND_H_
#define SMILER_SIMGPU_BACKEND_H_

namespace smiler {
namespace simgpu {

/// The simulated grid is the only execution path of a Device. This
/// one-value enum survives only because perfbench/main.cc still names it
/// when it constructs its Device; the next change to perfbench/ deletes
/// both the enum and Device's ignored fourth constructor parameter.
enum class BackendKind { kSimGrid };

}  // namespace simgpu
}  // namespace smiler

#endif  // SMILER_SIMGPU_BACKEND_H_
