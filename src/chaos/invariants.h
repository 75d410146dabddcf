#ifndef SMILER_CHAOS_INVARIANTS_H_
#define SMILER_CHAOS_INVARIANTS_H_

#include <string>
#include <vector>

#include "core/engine.h"
#include "store/tiered_store.h"

namespace smiler {
namespace chaos {

/// How CheckEngineSnapshot judges posting-arena entries against a
/// from-scratch recompute.
enum class ArenaCheckMode {
  /// Bitwise equality (head-region LBEQ rows excepted — see below). The
  /// mode for engines whose arena was maintained purely incrementally.
  kExact,
  /// stored <= recomputed for EVERY entry. The mode for engines that
  /// round-tripped through the cold tier: the 16-bit quantized spill
  /// encoding rounds each lower bound DOWN, so decoded entries are valid
  /// but not bitwise-identical bounds. Correctness (identical kNN sets,
  /// bitwise-identical predictions) rests on exactly this property.
  kQuantizedLowerBound,
};

/// \brief Structural validator for engine state, run by the chaos harness
/// after every scripted step: whatever faults were injected, a surviving
/// (non-quarantined) engine must still satisfy every invariant below.
///
/// The checks go far beyond "does Restore accept it" — they recompute the
/// derived state (envelopes, posting-list lower bounds) from the primary
/// state (the series) and compare. A fault that corrupts the incremental
/// index maintenance (Remark 1) without failing any Status path shows up
/// here as a violation.
class InvariantChecker {
 public:
  /// Validates one engine snapshot. Every violation found is appended to
  /// \p out as "<label>: <description>"; returns the number appended.
  ///
  /// Invariants checked:
  ///  - config validates; series long enough and all-finite
  ///  - history and master-query envelopes bitwise equal a from-scratch
  ///    recompute (incremental UpdateEnvelopeRange == full ComputeEnvelope)
  ///  - ring-buffer head in range, disjoint-window count and arena shape
  ///    consistent with the series length
  ///  - posting lists: every LBEC entry bitwise equals a recompute; every
  ///    LBEQ entry of a row whose master-query window lies outside the
  ///    envelope head region bitwise equals a recompute; head-region rows
  ///    (SlidingWindowBegin < rho + 1) may hold values computed against an
  ///    older, wider envelope clamp and must only satisfy
  ///    stored <= recomputed (still a valid lower bound)
  ///  - prev_knn thresholds: one list per ELV entry, neighbors in range,
  ///    finite non-negative distances, sorted by (dist, t), unique t
  ///  - ensemble state: grid shape, finite non-negative weights, finite
  ///    calibration EWMAs
  ///  - GP kernel cache: one optional per cell, finite log-hyperparameters
  ///  - pending forecasts: strictly future targets, strictly increasing
  ///    target times (one forecast per target), grid shapes match the
  ///    config, finite means and non-negative finite variances
  static int CheckEngineSnapshot(const std::string& label,
                                 const core::EngineSnapshot& snapshot,
                                 std::vector<std::string>* out,
                                 ArenaCheckMode mode = ArenaCheckMode::kExact);

  /// Store/engine residency agreement: for every slot of \p store,
  /// resident <=> a live engine occupies the manager slot, COLD implies a
  /// published spill segment, pin counts are non-negative, and the
  /// resident-byte sum matches the per-slot charges. A fault that desyncs
  /// the store's bookkeeping from the manager's actual slots (an eviction
  /// that released the engine but kept charging it, a rehydration that
  /// installed without accounting) shows up here. Violations appended to
  /// \p out as "<label>: <description>"; returns the number appended.
  static int CheckStoreResidency(const std::string& label,
                                 const store::TieredStateStore& store,
                                 std::vector<std::string>* out);

  /// Checkpoint round-trip identity: Save(snapshots) -> Load -> re-Save
  /// must produce a byte-identical file (the serialization is canonical,
  /// so state surviving one hop survives any number). Scratch files are
  /// written under \p scratch_dir. Violations appended to \p out; returns
  /// the number appended. Fault injection is paused for the duration so
  /// harness-internal IO does not consume scheduled fault hits.
  static int CheckCheckpointRoundTrip(
      const std::vector<core::EngineSnapshot>& snapshots,
      const std::string& scratch_dir, std::vector<std::string>* out);
};

}  // namespace chaos
}  // namespace smiler

#endif  // SMILER_CHAOS_INVARIANTS_H_
