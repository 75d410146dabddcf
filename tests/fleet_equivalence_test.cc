// Bitwise-equivalence suite for the server's predict path (tier 1).
//
// The load-bearing claim: the server runs a run of Predicts as one fleet
// in phases — every sensor's BeginPredict, one fused cross-sensor gram
// launch, every sensor's FinishPredict — with residency pins inline at
// each sensor's first engine touch. That changes WHEN work runs, never
// WHAT it computes. Every served prediction must be bitwise-identical
// (EXPECT_EQ on the raw doubles) to a plain sequential
// `SensorEngine::Predict()` loop:
//
//  * cold (first predict) and warm (streamed steps with online updates),
//  * for both predictor kinds (GP through the fused gram launch, AR with
//    no Grams at all), and
//  * with a 1-byte-budget TieredStateStore attached, so every batch
//    spills and every sensor rehydrates before its engine pass.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "case_scratch_dir.h"
#include "common/config.h"
#include "core/engine.h"
#include "core/manager.h"
#include "predictors/ensemble.h"
#include "serve/server.h"
#include "simgpu/device.h"
#include "store/tiered_store.h"
#include "ts/datasets.h"

namespace smiler {
namespace {

/// Small AR deployment geometry (fast; no Gram work).
SmilerConfig ArConfig() {
  SmilerConfig cfg;
  cfg.rho = 4;
  cfg.omega = 8;
  cfg.elv = {16, 24};
  cfg.ekv = {4, 8};
  cfg.horizon = 1;
  return cfg;
}

/// Small GP deployment geometry (exercises the fused gram launch).
SmilerConfig GpConfig() {
  SmilerConfig cfg;
  cfg.rho = 4;
  cfg.omega = 8;
  cfg.elv = {16, 24};
  cfg.ekv = {4, 8};
  cfg.initial_cg_steps = 10;
  cfg.online_cg_steps = 2;
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

/// Predictions indexed [sensor][step].
using PredictionTable = std::vector<std::vector<predictors::Prediction>>;

/// Serial ground truth: plain engines, no server, no store — one
/// monolithic Predict() then Observe() per sensor per step.
void SequentialReference(const Fleet& fleet, const SmilerConfig& cfg,
                         core::PredictorKind kind, int steps,
                         PredictionTable* out) {
  simgpu::Device device;
  auto control =
      core::MultiSensorManager::Create(&device, fleet.histories, cfg, kind);
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  const int sensors = static_cast<int>(fleet.histories.size());
  out->assign(sensors, {});
  for (int s = 0; s < sensors; ++s) {
    for (int step = 0; step < steps; ++step) {
      auto pred = control->engine(s).Predict();
      ASSERT_TRUE(pred.ok()) << pred.status().ToString();
      (*out)[s].push_back(*pred);
      ASSERT_TRUE(control->engine(s).Observe(fleet.streams[s][step]).ok());
    }
  }
}

/// Drives a PredictionServer through the same schedule with per-step
/// bursts (all sensors' AsyncPredicts in flight at once, one shard), so
/// multi-sensor fleets with a shared gram launch actually form.
/// Lone-claimed requests make a one-sensor fleet instead; either way the
/// values must match.
void ServeThroughServer(const Fleet& fleet, const SmilerConfig& cfg,
                        core::PredictorKind kind, int steps,
                        const std::string& store_dir, PredictionTable* out) {
  simgpu::Device device;
  auto manager =
      core::MultiSensorManager::Create(&device, fleet.histories, cfg, kind);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  // Outlives the server (which holds a raw pointer to it).
  std::unique_ptr<store::TieredStateStore> store;

  serve::ServerOptions options;
  options.num_shards = 1;  // all sensors on one shard -> one batch former
  options.queue_capacity = 64;
  auto server_or =
      serve::PredictionServer::Create(std::move(*manager), options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  serve::PredictionServer& server = **server_or;

  if (!store_dir.empty()) {
    store::StoreOptions store_options;
    store_options.dir = store_dir;
    // 1 byte: every batch end spills all sensors, so every subsequent
    // engine pass starts with a rehydrating pin.
    store_options.budget_bytes = 1;
    auto store_or = store::TieredStateStore::Create(store_options);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    store = std::move(*store_or);
    ASSERT_TRUE(server.AttachStore(store.get()).ok());
  }

  const int sensors = static_cast<int>(fleet.histories.size());
  out->assign(sensors, {});
  for (int step = 0; step < steps; ++step) {
    std::vector<std::future<serve::Response>> burst;
    for (int s = 0; s < sensors; ++s) {
      burst.push_back(server.AsyncPredict(s, serve::kNoDeadline));
    }
    for (int s = 0; s < sensors; ++s) {
      serve::Response response = burst[s].get();
      ASSERT_TRUE(response.status.ok())
          << "step " << step << " sensor " << s << ": "
          << response.status.ToString();
      (*out)[s].push_back(response.prediction);
    }
    for (int s = 0; s < sensors; ++s) {
      serve::Response obs =
          server.AsyncObserve(s, fleet.streams[s][step], serve::kNoDeadline)
              .get();
      ASSERT_TRUE(obs.status.ok())
          << "step " << step << " sensor " << s << ": "
          << obs.status.ToString();
    }
  }
  server.Shutdown();
  if (store != nullptr) {
    // The rehydrate path was actually on: nothing survives batch end.
    EXPECT_EQ(store->resident_bytes(), 0u);
  }
}

void ExpectBitwiseEqual(const PredictionTable& got, const PredictionTable& want,
                        const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t s = 0; s < got.size(); ++s) {
    ASSERT_EQ(got[s].size(), want[s].size()) << context << " sensor " << s;
    for (std::size_t step = 0; step < got[s].size(); ++step) {
      // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is bitwise.
      EXPECT_EQ(got[s][step].mean, want[s][step].mean)
          << context << " sensor " << s << " step " << step;
      EXPECT_EQ(got[s][step].variance, want[s][step].variance)
          << context << " sensor " << s << " step " << step;
    }
  }
}

TEST(FleetEquivalenceTest, GpFleetMatchesSequentialPredict) {
  constexpr int kSensors = 3;
  constexpr int kSteps = 6;
  Fleet fleet = MakeFleet(kSensors, 694, kSteps, 2015);

  PredictionTable want;
  SequentialReference(fleet, GpConfig(), core::PredictorKind::kGp, kSteps,
                      &want);
  if (HasFatalFailure()) return;

  PredictionTable served;
  ServeThroughServer(fleet, GpConfig(), core::PredictorKind::kGp, kSteps,
                     /*store_dir=*/"", &served);
  if (HasFatalFailure()) return;
  ExpectBitwiseEqual(served, want, "served vs sequential (gp)");
}

TEST(FleetEquivalenceTest, GpFleetWithTinyBudgetStoreMatchesSequential) {
  constexpr int kSensors = 3;
  constexpr int kSteps = 6;
  Fleet fleet = MakeFleet(kSensors, 694, kSteps, 2015);

  PredictionTable want;
  SequentialReference(fleet, GpConfig(), core::PredictorKind::kGp, kSteps,
                      &want);
  if (HasFatalFailure()) return;

  CaseScratchDir scratch;
  PredictionTable served;
  ServeThroughServer(fleet, GpConfig(), core::PredictorKind::kGp, kSteps,
                     scratch.path(), &served);
  if (HasFatalFailure()) return;
  ExpectBitwiseEqual(served, want, "served+tiered-store vs sequential (gp)");
}

TEST(FleetEquivalenceTest, ArFleetWithTinyBudgetStoreMatchesSequential) {
  constexpr int kSensors = 4;
  constexpr int kSteps = 10;
  Fleet fleet = MakeFleet(kSensors, 96, kSteps, 77);

  PredictionTable want;
  SequentialReference(fleet, ArConfig(), core::PredictorKind::kAr, kSteps,
                      &want);
  if (HasFatalFailure()) return;

  CaseScratchDir scratch;
  PredictionTable served;
  ServeThroughServer(fleet, ArConfig(), core::PredictorKind::kAr, kSteps,
                     scratch.path(), &served);
  if (HasFatalFailure()) return;
  ExpectBitwiseEqual(served, want, "served+tiered-store vs sequential (ar)");
}

}  // namespace
}  // namespace smiler
