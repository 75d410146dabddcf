// Tier-2 chaos soak: sweeps many seeds through the scenario runner under
// the full fault schedule. Every violation prints a one-line repro
// (SMILER_CHAOS_SEED=<seed>) that replays the identical fault sequence —
// run the suite with that variable exported to debug a single seed.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "case_scratch_dir.h"
#include "chaos/fault.h"
#include "chaos/scenario.h"

namespace smiler {
namespace chaos {
namespace {

ScenarioOptions SoakOptions(std::uint64_t seed,
                            const std::string& scratch_dir) {
  ScenarioOptions options;
  options.seed = seed;
  options.num_sensors = 3;
  options.history_points = 64;
  options.steps = 12;
  options.check_every = 4;
  options.queue_capacity = 32;
  options.scratch_dir = scratch_dir;
#if defined(SMILER_ENABLE_CHAOS)
  // Chaos build: every cataloged fault point is live.
  options.schedule = DefaultSchedule();
#else
  // Default build: the engine-level injection macros compile to `false`;
  // only the driver-side anomaly point can fire. The sweep then soaks
  // the healthy pipeline plus anomaly handling.
  FaultSpec anomalies;
  anomalies.probability = 0.15;
  options.schedule.points["ts.anomaly"] = anomalies;
#endif
  return options;
}

void ReportFailure(std::uint64_t seed, const ScenarioResult& result) {
  std::cerr << "chaos soak failed — replay with: SMILER_CHAOS_SEED=" << seed
            << " ./chaos_soak_test\n";
  if (!result.status.ok()) {
    std::cerr << "  harness status: " << result.status.ToString() << "\n";
  }
  for (const std::string& v : result.violations) {
    std::cerr << "  violation: " << v << "\n";
  }
}

TEST(ChaosSoakTest, SeedSweepHoldsEveryInvariant) {
  const char* pinned = std::getenv("SMILER_CHAOS_SEED");
  const std::uint64_t first = pinned != nullptr
                                  ? std::strtoull(pinned, nullptr, 10)
                                  : 1;
  const int count = pinned != nullptr ? 1 : 32;
  std::uint64_t total_faults = 0;
  std::uint64_t total_ops = 0;
  int total_quarantined = 0;
  CaseScratchDir scratch;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = first + static_cast<std::uint64_t>(i);
    ScenarioResult result =
        ScenarioRunner(SoakOptions(seed, scratch.path())).Run();
    if (!result.ok()) ReportFailure(seed, result);
    ASSERT_TRUE(result.status.ok()) << "seed " << seed;
    EXPECT_TRUE(result.violations.empty()) << "seed " << seed;
    EXPECT_GT(result.ops, 0u);
    total_faults += result.faults_fired;
    total_ops += result.ops;
    total_quarantined += result.quarantined;
  }
  std::cerr << "chaos soak: " << count << " seeds, " << total_ops << " ops, "
            << total_faults << " faults fired, " << total_quarantined
            << " sensors quarantined\n";
  // The sweep must actually hurt: a soak where nothing ever fires is a
  // misconfigured schedule, not a passing result.
  EXPECT_GT(total_faults, 0u);
#if defined(SMILER_ENABLE_CHAOS)
  // With engine-level faults live, some run of 32 must have wedged an
  // engine mid-mutation (deterministic: fixed seeds).
  if (pinned == nullptr) EXPECT_GT(total_quarantined, 0);
#endif
}

TEST(ChaosSoakTest, FailingSeedsReplayBitIdentically) {
  // The debugging contract behind the repro line above: whatever a seed
  // did — faults fired, requests failed, sensors quarantined — a second
  // run does exactly the same.
  const char* pinned = std::getenv("SMILER_CHAOS_SEED");
  const std::uint64_t base =
      pinned != nullptr ? std::strtoull(pinned, nullptr, 10) : 101;
  CaseScratchDir scratch;
  for (std::uint64_t seed = base; seed < base + 3; ++seed) {
    ScenarioResult a = ScenarioRunner(SoakOptions(seed, scratch.path())).Run();
    ScenarioResult b = ScenarioRunner(SoakOptions(seed, scratch.path())).Run();
    ASSERT_TRUE(a.status.ok()) << a.status.ToString();
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "seed " << seed;
    EXPECT_EQ(a.faults_fired, b.faults_fired) << "seed " << seed;
    EXPECT_EQ(a.quarantined, b.quarantined) << "seed " << seed;
    EXPECT_EQ(a.status_counts, b.status_counts) << "seed " << seed;
    ASSERT_EQ(a.trigger_log.size(), b.trigger_log.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.trigger_log.size(); ++i) {
      EXPECT_EQ(a.trigger_log[i].point, b.trigger_log[i].point);
      EXPECT_EQ(a.trigger_log[i].hit, b.trigger_log[i].hit);
    }
    ASSERT_EQ(a.violations.size(), b.violations.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.violations.size(); ++i) {
      EXPECT_EQ(a.violations[i], b.violations[i]);
    }
  }
}

}  // namespace
}  // namespace chaos
}  // namespace smiler
