#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "case_scratch_dir.h"
#include "chaos/fault.h"
#include "chaos/invariants.h"
#include "chaos/scenario.h"
#include "core/engine.h"
#include "core/manager.h"
#include "core/snapshot_codec.h"
#include "obs/metrics.h"
#include "simgpu/device.h"
#include "store/tiered_store.h"
#include "ts/datasets.h"

namespace smiler {
namespace chaos {
namespace {

FaultSchedule OnePoint(const std::string& point, double probability,
                       std::uint64_t seed = 7) {
  FaultSchedule schedule;
  schedule.seed = seed;
  FaultSpec spec;
  spec.probability = probability;
  schedule.points[point] = spec;
  return schedule;
}

/// Registry state never leaks across tests.
class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Global().Disarm(); }
};

TEST_F(ChaosTest, DecideIsPureAndSeeded) {
  // Same inputs, same verdict — the decision is a pure function.
  for (std::uint64_t hit = 0; hit < 64; ++hit) {
    EXPECT_EQ(FaultRegistry::Decide(42, "ckpt.write", hit, 0.3),
              FaultRegistry::Decide(42, "ckpt.write", hit, 0.3));
  }
  // Degenerate probabilities are exact, not approximate.
  for (std::uint64_t hit = 0; hit < 64; ++hit) {
    EXPECT_FALSE(FaultRegistry::Decide(42, "ckpt.write", hit, 0.0));
    EXPECT_TRUE(FaultRegistry::Decide(42, "ckpt.write", hit, 1.0));
  }
  // Seed and point both matter: verdict vectors must not be constant.
  int diff_seed = 0, diff_point = 0;
  for (std::uint64_t hit = 0; hit < 256; ++hit) {
    diff_seed += FaultRegistry::Decide(1, "a", hit, 0.5) !=
                 FaultRegistry::Decide(2, "a", hit, 0.5);
    diff_point += FaultRegistry::Decide(1, "a", hit, 0.5) !=
                  FaultRegistry::Decide(1, "b", hit, 0.5);
  }
  EXPECT_GT(diff_seed, 0);
  EXPECT_GT(diff_point, 0);
  // The firing rate tracks the probability (loose CLT bound).
  int fired = 0;
  for (std::uint64_t hit = 0; hit < 10000; ++hit) {
    fired += FaultRegistry::Decide(9, "simgpu.launch", hit, 0.1);
  }
  EXPECT_NEAR(fired / 10000.0, 0.1, 0.02);
}

TEST_F(ChaosTest, ShouldFireReplaysExactlyAcrossReconfigure) {
  FaultRegistry& reg = FaultRegistry::Global();
  const FaultSchedule schedule = OnePoint("ckpt.write", 0.25, 99);
  std::vector<bool> first;
  reg.Configure(schedule);
  for (int i = 0; i < 200; ++i) first.push_back(reg.ShouldFire("ckpt.write"));
  const std::vector<TriggerRecord> first_log = reg.TriggerLog();
  const std::uint64_t first_fp = reg.Fingerprint();
  ASSERT_FALSE(first_log.empty());

  reg.Configure(schedule);  // replay: counters and log reset
  std::vector<bool> second;
  for (int i = 0; i < 200; ++i) second.push_back(reg.ShouldFire("ckpt.write"));
  EXPECT_EQ(first, second);
  ASSERT_EQ(first_log.size(), reg.TriggerLog().size());
  for (std::size_t i = 0; i < first_log.size(); ++i) {
    EXPECT_EQ(first_log[i].point, reg.TriggerLog()[i].point);
    EXPECT_EQ(first_log[i].hit, reg.TriggerLog()[i].hit);
  }
  EXPECT_EQ(first_fp, reg.Fingerprint());
}

TEST_F(ChaosTest, DisarmedUnconfiguredAndPausedConsumeNoHits) {
  FaultRegistry& reg = FaultRegistry::Global();
  // Disarmed: no consumption at all.
  reg.Disarm();
  EXPECT_FALSE(reg.ShouldFire("ckpt.write"));
  reg.Configure(OnePoint("ckpt.write", 1.0));
  EXPECT_EQ(reg.HitCount("ckpt.write"), 0u);
  // Unconfigured point: armed registry still must not track it.
  EXPECT_FALSE(reg.ShouldFire("ckpt.rename"));
  EXPECT_EQ(reg.HitCount("ckpt.rename"), 0u);
  // Paused: harness-internal traffic leaves the hit sequence untouched,
  // so the post-pause firing pattern equals the uninterrupted one.
  reg.Configure(OnePoint("ckpt.write", 0.5, 123));
  std::vector<bool> uninterrupted;
  for (int i = 0; i < 100; ++i) {
    uninterrupted.push_back(reg.ShouldFire("ckpt.write"));
  }
  reg.Configure(OnePoint("ckpt.write", 0.5, 123));
  std::vector<bool> with_pause;
  for (int i = 0; i < 100; ++i) {
    if (i == 50) {
      ScopedPause pause;
      for (int j = 0; j < 37; ++j) {
        EXPECT_FALSE(reg.ShouldFire("ckpt.write"));
      }
    }
    with_pause.push_back(reg.ShouldFire("ckpt.write"));
  }
  EXPECT_EQ(uninterrupted, with_pause);
}

TEST_F(ChaosTest, SkipFirstAndMaxTriggersShapeTheSchedule) {
  FaultRegistry& reg = FaultRegistry::Global();
  FaultSchedule schedule;
  schedule.seed = 5;
  FaultSpec spec;
  spec.probability = 1.0;
  spec.skip_first = 3;
  spec.max_triggers = 2;
  schedule.points["serve.enqueue"] = spec;
  reg.Configure(schedule);
  std::vector<bool> fired;
  for (int i = 0; i < 10; ++i) fired.push_back(reg.ShouldFire("serve.enqueue"));
  const std::vector<bool> expect = {false, false, false, true, true,
                                    false, false, false, false, false};
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(reg.TriggerCount("serve.enqueue"), 2u);
  EXPECT_EQ(reg.HitCount("serve.enqueue"), 10u);
}

/// Fault-point names in the "Fault-point catalog" table of
/// docs/testing.md: the backquoted first cell of every row between the
/// section heading and the next heading.
std::vector<std::string> DocumentedFaultPoints() {
  std::ifstream doc(std::string(SMILER_SOURCE_DIR) + "/docs/testing.md");
  EXPECT_TRUE(doc.good()) << "cannot read docs/testing.md";
  std::vector<std::string> names;
  bool in_catalog = false;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind("#", 0) == 0) {
      in_catalog = line.find("Fault-point catalog") != std::string::npos;
      continue;
    }
    if (!in_catalog || line.rfind("| `", 0) != 0) continue;
    const std::size_t close = line.find('`', 3);
    if (close != std::string::npos) names.push_back(line.substr(3, close - 3));
  }
  return names;
}

TEST_F(ChaosTest, CatalogNamesAreUniqueAndDocumented) {
  const std::vector<FaultPointInfo>& catalog = KnownFaultPoints();
  EXPECT_GE(catalog.size(), 11u);
  std::unordered_set<std::string> names;
  for (const FaultPointInfo& info : catalog) {
    EXPECT_TRUE(names.insert(info.name).second)
        << "duplicate fault point " << info.name;
    EXPECT_GT(std::string(info.layer).size(), 0u) << info.name;
    EXPECT_GT(std::string(info.effect).size(), 0u) << info.name;
  }
  // Both ways: every catalogued point has a docs row, and every docs row
  // names a catalogued point.
  const std::vector<std::string> documented = DocumentedFaultPoints();
  const std::unordered_set<std::string> rows(documented.begin(),
                                             documented.end());
  EXPECT_EQ(rows.size(), documented.size()) << "duplicate docs row";
  for (const std::string& name : names) {
    EXPECT_EQ(rows.count(name), 1u)
        << name << " has no row in the docs/testing.md fault-point catalog";
  }
  for (const std::string& row : documented) {
    EXPECT_EQ(names.count(row), 1u)
        << "docs/testing.md catalogs " << row
        << ", which KnownFaultPoints() does not";
  }
}

TEST_F(ChaosTest, MacroCompilesToConfiguredBehavior) {
  FaultRegistry::Global().Configure(OnePoint("simgpu.launch", 1.0));
#if defined(SMILER_ENABLE_CHAOS)
  EXPECT_TRUE(SMILER_FAULT_TRIGGERED("simgpu.launch"));
#else
  // Zero-overhead build: the macro is the literal `false`, whatever the
  // registry says.
  EXPECT_FALSE(SMILER_FAULT_TRIGGERED("simgpu.launch"));
#endif
}

// ---------------------------------------------------------------------------
// InvariantChecker against a real engine.

SmilerConfig SmallConfig() {
  SmilerConfig cfg;
  cfg.rho = 4;
  cfg.omega = 8;
  cfg.elv = {16, 24};
  cfg.ekv = {4, 8};
  return cfg;
}

core::SensorEngine StreamedEngine(simgpu::Device* device, int history_points,
                                  int steps) {
  auto data = ts::MakeDataset(
      {ts::DatasetKind::kRoad, 1, history_points + steps, 64, 77, true});
  const std::vector<double>& full = (*data)[0].values();
  ts::TimeSeries history(
      "s0", std::vector<double>(full.begin(), full.begin() + history_points));
  auto engine =
      core::SensorEngine::Create(device, history, SmallConfig(),
                                 core::PredictorKind::kAr);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  for (int i = 0; i < steps; ++i) {
    EXPECT_TRUE(engine->Predict(nullptr).ok());
    EXPECT_TRUE(engine->Observe(full[history_points + i]).ok());
  }
  return std::move(*engine);
}

TEST_F(ChaosTest, HealthyStreamedEngineHasNoViolations) {
  simgpu::Device device;
  // Enough steps that the posting ring wraps and the head-region rows
  // (stale-but-valid LBEQ underestimates) are exercised: the deep
  // recompute check must accept them, not flag them.
  core::SensorEngine engine = StreamedEngine(&device, 64, 30);
  std::vector<std::string> violations;
  InvariantChecker::CheckEngineSnapshot("healthy", engine.Snapshot(),
                                        &violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST_F(ChaosTest, CheckerDetectsCraftedCorruption) {
  simgpu::Device device;
  core::SensorEngine engine = StreamedEngine(&device, 64, 12);
  const core::EngineSnapshot clean = engine.Snapshot();

  {  // A silently corrupted posting entry (bound raised = candidates
     // wrongly pruned) is exactly what the deep check exists to catch.
    core::EngineSnapshot snap = clean;
    snap.index.arena[snap.index.arena.size() / 2] += 1.0;
    std::vector<std::string> v;
    EXPECT_GT(InvariantChecker::CheckEngineSnapshot("arena", snap, &v), 0);
  }
  {  // Envelope drift away from the recompute.
    core::EngineSnapshot snap = clean;
    snap.index.env_c_upper[3] += 0.5;
    std::vector<std::string> v;
    EXPECT_GT(InvariantChecker::CheckEngineSnapshot("env", snap, &v), 0);
  }
  {  // Threshold seed pointing outside the series.
    core::EngineSnapshot snap = clean;
    ASSERT_FALSE(snap.index.prev_knn.empty());
    ASSERT_FALSE(snap.index.prev_knn[0].empty());
    snap.index.prev_knn[0][0].t =
        static_cast<long>(snap.index.series.size());
    std::vector<std::string> v;
    EXPECT_GT(InvariantChecker::CheckEngineSnapshot("knn", snap, &v), 0);
  }
  {  // Pending forecast whose target is already in the past.
    core::EngineSnapshot snap = clean;
    snap.pending.resize(1);
    snap.pending[0].target_time = 0;
    snap.pending[0].grid = predictors::PredictionGrid(
        static_cast<int>(snap.config.ekv.size()),
        static_cast<int>(snap.config.elv.size()));
    std::vector<std::string> v;
    EXPECT_GT(InvariantChecker::CheckEngineSnapshot("pending", snap, &v), 0);
  }
  {  // Two forecasts for one target time: a repeated Predict replaces the
     // pending forecast instead of queueing a second weight update.
    ASSERT_TRUE(engine.Predict(nullptr).ok());
    core::EngineSnapshot snap = engine.Snapshot();
    ASSERT_EQ(snap.pending.size(), 1u);
    snap.pending.push_back(snap.pending.front());
    std::vector<std::string> v;
    EXPECT_EQ(InvariantChecker::CheckEngineSnapshot("twice", snap, &v), 1);
  }
  // And the clean snapshot still passes (the corruptions above were on
  // copies).
  std::vector<std::string> v;
  EXPECT_EQ(InvariantChecker::CheckEngineSnapshot("clean", clean, &v), 0)
      << v.front();
}

TEST_F(ChaosTest, CheckpointRoundTripIsByteStable) {
  simgpu::Device device;
  core::SensorEngine engine = StreamedEngine(&device, 64, 8);
  CaseScratchDir scratch;
  std::vector<std::string> v;
  EXPECT_EQ(InvariantChecker::CheckCheckpointRoundTrip(
                {engine.Snapshot()}, scratch.path(), &v),
            0)
      << v.front();
}

// ---------------------------------------------------------------------------
// Tiered-storage invariants (ChaosStoreTest surface).

TEST_F(ChaosTest, QuantizedRoundTripPassesLowerBoundModeOnly) {
  simgpu::Device device;
  core::SensorEngine engine = StreamedEngine(&device, 64, 12);
  const core::EngineSnapshot exact = engine.Snapshot();
  const std::string blob = core::SerializeSnapshotBlob(
      {exact}, core::ArenaEncoding::kQuantized16);
  auto parsed = core::ParseSnapshotBlob(blob.data(), blob.size(), "mem");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);

  // The decoded arena holds round-DOWN 16-bit reconstructions: every
  // entry is still a valid lower bound, so the tolerant mode accepts it.
  std::vector<std::string> tolerant;
  EXPECT_EQ(InvariantChecker::CheckEngineSnapshot(
                "quantized", (*parsed)[0], &tolerant,
                ArenaCheckMode::kQuantizedLowerBound),
            0)
      << tolerant.front();

  // The strict mode must flag exactly the quantization drift (whenever
  // any entry actually moved — with 16-bit levels over a real spread,
  // some always does).
  if ((*parsed)[0].index.arena != exact.index.arena) {
    std::vector<std::string> strict;
    EXPECT_GT(InvariantChecker::CheckEngineSnapshot(
                  "strict", (*parsed)[0], &strict, ArenaCheckMode::kExact),
              0);
  }
}

TEST_F(ChaosTest, StoreResidencyCheckTracksEvictAndRehydrate) {
  simgpu::Device device;
  auto data = ts::MakeDataset({ts::DatasetKind::kRoad, 2, 96, 64, 5, true});
  ASSERT_TRUE(data.ok());
  auto manager = core::MultiSensorManager::Create(&device, *data, SmallConfig(),
                                                  core::PredictorKind::kAr);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  CaseScratchDir scratch;
  store::StoreOptions options;
  options.dir = scratch.path() + "/store";
  options.budget_bytes = std::numeric_limits<std::size_t>::max();
  auto store_or = store::TieredStateStore::Create(options);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  store::TieredStateStore& store = **store_or;
  ASSERT_TRUE(store.Bind(&*manager, &device).ok());

  std::vector<std::string> v;
  EXPECT_EQ(InvariantChecker::CheckStoreResidency("fresh", store, &v), 0)
      << v.front();

  // COLD: the manager slot empties, a segment appears, bookkeeping agrees.
  ASSERT_TRUE(store.Evict(1).ok());
  EXPECT_FALSE(manager->resident(1));
  EXPECT_FALSE(store.resident(1));
  EXPECT_EQ(InvariantChecker::CheckStoreResidency("cold", store, &v), 0)
      << v.back();

  // RESIDENT again via a rehydrating Pin; pinned slots stay consistent.
  ASSERT_TRUE(store.Pin(1).ok());
  EXPECT_TRUE(manager->resident(1));
  EXPECT_EQ(InvariantChecker::CheckStoreResidency("pinned", store, &v), 0)
      << v.back();
  store.Unpin(1);
  EXPECT_EQ(InvariantChecker::CheckStoreResidency("unpinned", store, &v), 0)
      << v.back();
}

// ---------------------------------------------------------------------------
// ScenarioRunner determinism.

TEST_F(ChaosTest, ScenarioReplaysBitIdentically) {
  ScenarioOptions options;
  options.seed = 11;
  options.num_sensors = 3;
  options.history_points = 64;
  options.steps = 10;
  options.check_every = 5;
  CaseScratchDir scratch;
  options.scratch_dir = scratch.path();
  // In the default (chaos-off) build only the driver-side ts.anomaly
  // point is live; give it a high rate so the anomaly path is exercised.
  options.schedule = OnePoint("ts.anomaly", 0.3);
  ScenarioResult a = ScenarioRunner(options).Run();
  ScenarioResult b = ScenarioRunner(options).Run();

  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  EXPECT_TRUE(a.violations.empty()) << a.violations.front();
  EXPECT_GT(a.faults_fired, 0u);  // anomalies actually flowed
  EXPECT_GT(a.status_counts["InvalidArgument"], 0u);  // NaN/inf rejected

  // Bit-for-bit replay: fingerprint, trigger log, outcome histogram.
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.status_counts, b.status_counts);
  ASSERT_EQ(a.trigger_log.size(), b.trigger_log.size());
  for (std::size_t i = 0; i < a.trigger_log.size(); ++i) {
    EXPECT_EQ(a.trigger_log[i].point, b.trigger_log[i].point);
    EXPECT_EQ(a.trigger_log[i].hit, b.trigger_log[i].hit);
  }
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.ops, b.ops);
}

TEST_F(ChaosTest, ScenarioPollsLiveStatsWithoutPerturbingReplay) {
  ScenarioOptions options;
  options.seed = 11;
  options.num_sensors = 3;
  options.history_points = 64;
  options.steps = 10;
  options.check_every = 5;
  options.schedule = OnePoint("ts.anomaly", 0.3);
  options.stats_port = 0;  // ephemeral endpoint, polled mid-storm
  ScenarioResult with_stats = ScenarioRunner(options).Run();
  ASSERT_TRUE(with_stats.status.ok()) << with_stats.status.ToString();
  EXPECT_TRUE(with_stats.violations.empty());
  // Every endpoint answered at least once while the storm was running.
  EXPECT_TRUE(with_stats.stats_probe_ok);
  // /healthz flips to 503 exactly when a sensor was quarantined: in the
  // chaos build engine-level faults quarantine sensors and the endpoint
  // must surface it; in the default build ts.anomaly only yields
  // InvalidArgument rejections, so the fleet stays healthy and so does
  // the endpoint.
  EXPECT_EQ(with_stats.healthz_degraded_observed,
            with_stats.quarantined > 0);

  // Probing is observation-only: the fingerprint of an identical run
  // with the endpoint disabled is bit-identical.
  options.stats_port = -1;
  ScenarioResult without = ScenarioRunner(options).Run();
  ASSERT_TRUE(without.status.ok());
  EXPECT_EQ(with_stats.fingerprint, without.fingerprint);
  EXPECT_EQ(with_stats.status_counts, without.status_counts);
  EXPECT_FALSE(without.stats_probe_ok);  // never polled
}

TEST_F(ChaosTest, ScenarioWithStoreSpillReplaysBitIdentically) {
  ScenarioOptions options;
  options.seed = 31;
  options.num_sensors = 3;
  options.history_points = 64;
  options.steps = 10;
  options.check_every = 5;
  CaseScratchDir scratch;
  options.scratch_dir = scratch.path();
  // Demote a sensor every other step: the following batch rehydrates it
  // through the quantized cold tier, and the sweeps run in
  // kQuantizedLowerBound mode plus the store-residency agreement check.
  options.store_spill_every = 2;
  // Arm both store fault points hard (live only in chaos builds; the
  // default build still exercises the healthy spill/rehydrate cycle).
  FaultSchedule schedule;
  FaultSpec spec;
  spec.probability = 0.25;
  schedule.points["store.spill_write"] = spec;
  schedule.points["store.rehydrate_read_short"] = spec;
  options.schedule = schedule;

  const std::uint64_t evictions_before =
      obs::Registry::Global().GetCounter("store.evictions").value();
  ScenarioResult a = ScenarioRunner(options).Run();
  ScenarioResult b = ScenarioRunner(options).Run();

  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  EXPECT_TRUE(a.violations.empty()) << a.violations.front();
  // The cadence actually demoted sensors (not every attempt must succeed
  // under a torn-write storm, but across two runs some must).
  EXPECT_GT(obs::Registry::Global().GetCounter("store.evictions").value(),
            evictions_before);

  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.status_counts, b.status_counts);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.quarantined, b.quarantined);
  ASSERT_EQ(a.trigger_log.size(), b.trigger_log.size());
  for (std::size_t i = 0; i < a.trigger_log.size(); ++i) {
    EXPECT_EQ(a.trigger_log[i].point, b.trigger_log[i].point);
    EXPECT_EQ(a.trigger_log[i].hit, b.trigger_log[i].hit);
  }
}

TEST_F(ChaosTest, ScenarioDifferentSeedsDiverge) {
  ScenarioOptions options;
  options.num_sensors = 2;
  options.history_points = 64;
  options.steps = 6;
  options.check_every = 3;
  options.schedule = OnePoint("ts.anomaly", 0.3);
  options.seed = 21;
  ScenarioResult a = ScenarioRunner(options).Run();
  options.seed = 22;
  ScenarioResult b = ScenarioRunner(options).Run();
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

}  // namespace
}  // namespace chaos
}  // namespace smiler
