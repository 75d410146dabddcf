// Equivalence and semantics suite for smiler::store — the tiered
// engine-state storage. The load-bearing claim: demoting a sensor to the
// quantized cold tier and rehydrating it later leaves every subsequent
// prediction bitwise-identical to a fleet that never spilled. The 16-bit
// arena encoding rounds each lower bound DOWN (still a valid bound, so
// filter-and-verify admits a superset of candidates and the exact DTW
// verify + exactly-preserved prev_knn thresholds reproduce the same kNN
// sets), which this suite pins down end to end, plus the
// SMILER_STORE_BUDGET_BYTES fail-fast contract and the clock eviction
// policy. The concurrent section drives a sharded
// PredictionServer through a 1-byte budget (every batch rehydrates and
// re-spills) from one client thread per sensor — the TSan gate runs it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "core/engine.h"
#include "core/manager.h"
#include "serve/server.h"
#include "simgpu/device.h"
#include "store/tiered_store.h"
#include "ts/datasets.h"

namespace smiler {
namespace {

/// Sets (or clears, when value is null) an environment variable for the
/// lifetime of a scope, restoring the previous state on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

SmilerConfig SmallConfig() {
  SmilerConfig cfg;
  cfg.rho = 4;
  cfg.omega = 8;
  cfg.elv = {16, 24};
  cfg.ekv = {4, 8};
  cfg.horizon = 1;
  return cfg;
}

struct Fleet {
  std::vector<ts::TimeSeries> histories;
  std::vector<std::vector<double>> streams;
};

Fleet MakeFleet(int sensors, int history_points, int stream_points,
                std::uint64_t seed) {
  ts::DatasetSpec spec;
  spec.kind = ts::DatasetKind::kRoad;
  spec.num_sensors = sensors;
  spec.points_per_sensor = history_points + stream_points;
  spec.samples_per_day = 64;
  spec.seed = seed;
  auto data = ts::MakeDataset(spec);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  Fleet fleet;
  for (int s = 0; s < sensors; ++s) {
    const std::vector<double>& full = (*data)[s].values();
    fleet.histories.emplace_back(
        (*data)[s].sensor_id(),
        std::vector<double>(full.begin(), full.begin() + history_points));
    fleet.streams.emplace_back(full.begin() + history_points, full.end());
  }
  return fleet;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  // Segments from a previous run of the same test must not leak in.
  (void)std::system(("rm -rf '" + dir + "'").c_str());
  return dir;
}

// ---------------------------------------------------------------------------
// SMILER_STORE_BUDGET_BYTES semantics.

TEST(StoreBudgetTest, ParseAcceptsDecimalByteCountsOnly) {
  auto six_gib = store::ParseStoreBudget("6442450944");
  ASSERT_TRUE(six_gib.ok());
  EXPECT_EQ(*six_gib, 6442450944ULL);
  auto zero = store::ParseStoreBudget("0");
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(*zero, 0u);
  for (const char* bad : {"", "6GiB", "-1", "1e9", " 42", "42 ", "0x10"}) {
    auto parsed = store::ParseStoreBudget(bad);
    EXPECT_FALSE(parsed.ok()) << "'" << bad << "' should not parse";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(StoreBudgetTest, UnsetEnvMeansUnlimited) {
  ScopedEnv env("SMILER_STORE_BUDGET_BYTES", nullptr);
  auto budget = store::StoreBudgetFromEnv();
  ASSERT_TRUE(budget.ok());
  EXPECT_EQ(*budget, std::numeric_limits<std::size_t>::max());

  store::StoreOptions options;
  options.dir = FreshDir("store_env_unset");
  auto store = store::TieredStateStore::Create(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->budget_bytes(),
            std::numeric_limits<std::size_t>::max());
}

TEST(StoreBudgetTest, InvalidEnvPoisonsEveryOperation) {
  ScopedEnv env("SMILER_STORE_BUDGET_BYTES", "lots");
  store::StoreOptions options;
  options.dir = FreshDir("store_env_invalid");
  // Construction succeeds (the error is resolved once and stored), but no
  // operation silently falls back to a default.
  auto store_or = store::TieredStateStore::Create(options);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  store::TieredStateStore& store = **store_or;

  simgpu::Device device;
  Fleet fleet = MakeFleet(1, 64, 4, 9);
  auto manager = core::MultiSensorManager::Create(
      &device, fleet.histories, SmallConfig(), core::PredictorKind::kAr);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  for (const Status& st :
       {store.Bind(&*manager, &device), store.Pin(0), store.Evict(0),
        store.EnforceBudget()}) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("SMILER_STORE_BUDGET_BYTES"),
              std::string::npos)
        << st.ToString();
  }
}

TEST(StoreBudgetTest, ExplicitBudgetOverridesEnv) {
  ScopedEnv env("SMILER_STORE_BUDGET_BYTES", "lots");  // would be invalid
  store::StoreOptions options;
  options.dir = FreshDir("store_env_override");
  options.budget_bytes = 123456;
  auto store = store::TieredStateStore::Create(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->budget_bytes(), 123456u);
}

// ---------------------------------------------------------------------------
// Evict -> rehydrate -> Predict bitwise identity.

TEST(StoreEquivalenceTest, EvictRehydratePredictBitwise) {
  const int kSensors = 3;
  const int kSteps = 15;
  Fleet fleet = MakeFleet(kSensors, 96, kSteps, 2015);

  // Control fleet: never spills.
  simgpu::Device control_device;
  auto control = core::MultiSensorManager::Create(
      &control_device, fleet.histories, SmallConfig(),
      core::PredictorKind::kAr);
  ASSERT_TRUE(control.ok()) << control.status().ToString();

  // Tiered fleet: every sensor round-trips through the quantized cold
  // tier several times over the run.
  simgpu::Device tiered_device;
  auto tiered = core::MultiSensorManager::Create(
      &tiered_device, fleet.histories, SmallConfig(),
      core::PredictorKind::kAr);
  ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
  store::StoreOptions options;
  options.dir = FreshDir("store_equiv");
  options.budget_bytes = std::numeric_limits<std::size_t>::max();
  auto store_or = store::TieredStateStore::Create(options);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  store::TieredStateStore& store = **store_or;
  ASSERT_TRUE(store.Bind(&*tiered, &tiered_device).ok());

  for (int step = 0; step < kSteps; ++step) {
    for (int s = 0; s < kSensors; ++s) {
      auto want = control->engine(s).Predict();
      ASSERT_TRUE(want.ok()) << want.status().ToString();

      ASSERT_TRUE(store.Pin(s).ok());
      ASSERT_TRUE(tiered->resident(s));
      auto got = tiered->engine(s).Predict();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      // Bit equality, not a tolerance: the quantized spill must never
      // touch the arithmetic of a surviving prediction.
      EXPECT_EQ(got->mean, want->mean) << "sensor " << s << " step " << step;
      EXPECT_EQ(got->variance, want->variance)
          << "sensor " << s << " step " << step;

      const double value = fleet.streams[s][step];
      ASSERT_TRUE(control->engine(s).Observe(value).ok());
      ASSERT_TRUE(tiered->engine(s).Observe(value).ok());
      store.Unpin(s);
    }
    // Demote the whole tiered fleet every third step, so later steps
    // predict from engines that were rebuilt off quantized segments
    // (and their stale segments were dropped on rehydration).
    if (step % 3 == 2) {
      for (int s = 0; s < kSensors; ++s) {
        ASSERT_TRUE(store.Evict(s).ok());
        EXPECT_FALSE(tiered->resident(s));
      }
      EXPECT_EQ(store.resident_bytes(), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Budget enforcement: clock sweep, pin protection.

TEST(StoreEquivalenceTest, EnforceBudgetSpillsUnpinnedAndSparesPinned) {
  simgpu::Device device;
  Fleet fleet = MakeFleet(3, 96, 4, 7);
  auto manager = core::MultiSensorManager::Create(
      &device, fleet.histories, SmallConfig(), core::PredictorKind::kAr);
  ASSERT_TRUE(manager.ok());

  store::StoreOptions options;
  options.dir = FreshDir("store_budget_enforce");
  options.budget_bytes = 1;  // nothing fits: evict everything evictable
  auto store_or = store::TieredStateStore::Create(options);
  ASSERT_TRUE(store_or.ok());
  store::TieredStateStore& store = **store_or;
  ASSERT_TRUE(store.Bind(&*manager, &device).ok());
  ASSERT_GT(store.resident_bytes(), 1u);

  // A pinned sensor survives any sweep; the rest go cold.
  ASSERT_TRUE(store.Pin(1).ok());
  EXPECT_TRUE(store.EnforceBudget().ok());
  EXPECT_FALSE(store.resident(0));
  EXPECT_TRUE(store.resident(1));
  EXPECT_FALSE(store.resident(2));
  EXPECT_GT(store.resident_bytes(), 0u);  // the pinned slot's charge

  // Unpinned, the last resident goes too (second-chance: its ref bit from
  // the Pin costs it one sweep pass, not immunity).
  store.Unpin(1);
  EXPECT_TRUE(store.EnforceBudget().ok());
  EXPECT_FALSE(store.resident(1));
  EXPECT_EQ(store.resident_bytes(), 0u);

  // The fleet still answers: Pin rehydrates on demand.
  ASSERT_TRUE(store.Pin(0).ok());
  EXPECT_TRUE(manager->resident(0));
  EXPECT_TRUE(manager->engine(0).Predict().ok());
  store.Unpin(0);

  // A non-resident manager slot fails per-sensor, not fleet-wide
  // (isolation contract): sensor 1 is still cold.
  EXPECT_FALSE(manager->resident(1));
}

// ---------------------------------------------------------------------------
// Concurrent serve traffic under a 1-byte budget (the TSan target).

TEST(StoreEquivalenceTest, ConcurrentServeTrafficUnderTinyBudgetStaysExact) {
  const int kSensors = 4;
  const int kSteps = 10;
  Fleet fleet = MakeFleet(kSensors, 96, kSteps, 77);

  // Serial control: plain engines, no store, no server.
  std::vector<std::vector<predictors::Prediction>> want(kSensors);
  {
    simgpu::Device device;
    auto control = core::MultiSensorManager::Create(
        &device, fleet.histories, SmallConfig(), core::PredictorKind::kAr);
    ASSERT_TRUE(control.ok());
    for (int s = 0; s < kSensors; ++s) {
      for (int step = 0; step < kSteps; ++step) {
        auto pred = control->engine(s).Predict();
        ASSERT_TRUE(pred.ok());
        want[s].push_back(*pred);
        ASSERT_TRUE(control->engine(s).Observe(fleet.streams[s][step]).ok());
      }
    }
  }

  // Tiered fleet behind a sharded server: the 1-byte budget makes every
  // batch end spill all unpinned sensors, so nearly every request
  // rehydrates through the quantized cold tier under concurrency.
  simgpu::Device device;
  auto manager = core::MultiSensorManager::Create(
      &device, fleet.histories, SmallConfig(), core::PredictorKind::kAr);
  ASSERT_TRUE(manager.ok());
  // Outlives the server (which holds a raw pointer to it).
  std::unique_ptr<store::TieredStateStore> store;
  serve::ServerOptions server_options;
  server_options.num_shards = 2;
  server_options.queue_capacity = 64;
  auto server_or =
      serve::PredictionServer::Create(std::move(*manager), server_options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  serve::PredictionServer& server = **server_or;

  store::StoreOptions options;
  options.dir = FreshDir("store_serve_tiny_budget");
  options.budget_bytes = 1;
  auto store_or = store::TieredStateStore::Create(options);
  ASSERT_TRUE(store_or.ok());
  store = std::move(*store_or);
  ASSERT_TRUE(server.AttachStore(store.get()).ok());

  std::vector<std::thread> clients;
  std::vector<std::string> failures(kSensors);
  for (int s = 0; s < kSensors; ++s) {
    clients.emplace_back([&, s] {
      for (int step = 0; step < kSteps; ++step) {
        serve::Response pred =
            server.AsyncPredict(s, serve::kNoDeadline).get();
        if (!pred.status.ok()) {
          failures[s] = pred.status.ToString();
          return;
        }
        if (pred.prediction.mean != want[s][step].mean ||
            pred.prediction.variance != want[s][step].variance) {
          failures[s] = "prediction diverged at step " +
                        std::to_string(step);
          return;
        }
        serve::Response obs =
            server.AsyncObserve(s, fleet.streams[s][step], serve::kNoDeadline)
                .get();
        if (!obs.status.ok()) {
          failures[s] = obs.status.ToString();
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Shutdown();
  for (int s = 0; s < kSensors; ++s) {
    EXPECT_TRUE(failures[s].empty()) << "sensor " << s << ": " << failures[s];
  }
  // The thrash actually happened: with a 1-byte budget nothing stays
  // resident across batch boundaries.
  EXPECT_EQ(store->resident_bytes(), 0u);
}

}  // namespace
}  // namespace smiler
