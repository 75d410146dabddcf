#ifndef SMILER_CHAOS_SCENARIO_H_
#define SMILER_CHAOS_SCENARIO_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/fault.h"
#include "common/config.h"
#include "common/status.h"
#include "core/engine.h"

namespace smiler {
namespace chaos {

/// Small TSan-friendly deployment geometry (rho = 4, omega = 8,
/// ELV = {16, 24}, EKV = {4, 8}) used by the default scenarios.
SmilerConfig MakeScenarioConfig();

/// Every cataloged fault point armed at a modest probability — enough to
/// fire a handful of times over a default-sized scenario without starving
/// the healthy path.
FaultSchedule DefaultSchedule();

/// \brief One scripted chaos run: a PredictionServer fleet driven through
/// a fixed request schedule while faults fire per the configured
/// FaultSchedule.
struct ScenarioOptions {
  /// Master seed: drives the dataset, the fault schedule (its own seed
  /// field is overwritten with this), and nothing else — two runs with
  /// equal options are bit-identical.
  std::uint64_t seed = 1;
  int num_sensors = 4;
  /// Points of history each engine is built with (before streaming).
  int history_points = 192;
  /// Closed-loop steps; each step sends one Predict and one Observe per
  /// healthy sensor.
  int steps = 24;
  int num_shards = 2;
  std::size_t queue_capacity = 64;
  /// Invariant sweep cadence (also always runs after the last step).
  int check_every = 6;
  /// Every Nth Predict carries an already-expired deadline and must be
  /// shed deterministically (0 disables).
  int expired_deadline_every = 7;
  /// Predictor for the fleet. AR keeps scenarios fast and bitwise
  /// deterministic under TSan.
  core::PredictorKind kind = core::PredictorKind::kAr;
  SmilerConfig config = MakeScenarioConfig();
  /// Fault schedule to arm for the run (seed is taken from `seed` above).
  FaultSchedule schedule;
  /// Directory for checkpoint traffic and round-trip scratch files.
  /// Empty disables all checkpoint exercising.
  std::string scratch_dir;
  /// Tiered-storage exercise: every Nth step the driver explicitly
  /// demotes one healthy sensor to the cold tier (round-robin), so the
  /// following Predict/Observe batch must rehydrate it — exercising the
  /// store.spill_write / store.rehydrate_read_short fault points on a
  /// DETERMINISTIC cadence (a byte-budget-driven eviction would make the
  /// fault-hit sequence timing-dependent and break fingerprint replay;
  /// the attached store therefore runs with an unlimited budget). 0
  /// disables; > 0 requires a non-empty scratch_dir for the segments.
  int store_spill_every = 0;
  /// Live stats endpoint under fault load: -1 disables (default); >= 0
  /// starts (or reuses) the process StatsServer on that port (0 =
  /// ephemeral) and polls /metrics, /healthz and /attribution at every
  /// invariant-sweep boundary, mid-fault-storm. Probe outcomes land in
  /// ScenarioResult but stay OUT of the fingerprint — polling must not
  /// perturb replay determinism.
  int stats_port = -1;
};

/// \brief Everything observable about a finished scenario. Two runs with
/// identical ScenarioOptions produce field-for-field identical results
/// (modulo `status` message text only on harness-setup failures).
struct ScenarioResult {
  /// Harness-level failure (dataset/fleet construction); fault-induced
  /// request failures do NOT set this — they land in status_counts.
  Status status;
  /// Invariant violations, in detection order. Empty on a correct run —
  /// whatever faults fired.
  std::vector<std::string> violations;
  /// Faults that actually fired, sorted by (point, hit) for
  /// order-stability across scheduling races.
  std::vector<TriggerRecord> trigger_log;
  /// Order-independent digest of ops, outcomes, prediction bits, trigger
  /// log, and violations. Equal seeds => equal fingerprints.
  std::uint64_t fingerprint = 0;
  /// Client operations issued (predicts + observes + checkpoint ops).
  std::uint64_t ops = 0;
  std::uint64_t faults_fired = 0;
  /// Outcome histogram keyed by StatusCodeName.
  std::map<std::string, std::uint64_t> status_counts;
  /// Sensors quarantined after an engine-level failure (a fault may leave
  /// an engine mid-mutation; the harness stops driving it and excludes it
  /// from invariant sweeps, mirroring how an operator would drain a
  /// wedged shard).
  int quarantined = 0;
  /// Stats-endpoint probes (stats_port >= 0 only; excluded from the
  /// fingerprint): true when every polled endpoint answered at least once.
  bool stats_probe_ok = false;
  /// True when a /healthz poll returned 503 — i.e. the endpoint surfaced
  /// a quarantined sensor while the storm was still running.
  bool healthz_degraded_observed = false;

  bool ok() const { return status.ok() && violations.empty(); }
};

/// \brief Drives a MultiSensorManager/PredictionServer fleet through a
/// scripted closed-loop schedule under the armed fault plan, checking
/// invariants as it goes.
///
/// Determinism contract: the driver is serial (one outstanding request at
/// a time), so the sequence of fault-point hits consumed by engine work
/// is a pure function of (seed, schedule) — any failing run replays
/// bit-identically from its ScenarioOptions. Inside one request the
/// simgpu launches still run concurrently, but every fault *decision* is
/// a pure function of (seed, point, hit_index), so the set of fired
/// faults and every Status outcome replay exactly.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioOptions options);

  /// Runs the scenario to completion (always shuts the fleet down and
  /// disarms the registry before returning).
  ScenarioResult Run();

 private:
  ScenarioOptions opt_;
};

}  // namespace chaos
}  // namespace smiler

#endif  // SMILER_CHAOS_SCENARIO_H_
