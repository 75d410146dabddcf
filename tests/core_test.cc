#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/engine.h"
#include "core/manager.h"
#include "core/metrics.h"
#include "ts/datasets.h"

namespace smiler {
namespace core {
namespace {

SmilerConfig TestConfig() {
  SmilerConfig cfg;
  cfg.rho = 4;
  cfg.omega = 8;
  cfg.elv = {16, 32};
  cfg.ekv = {4, 8};
  cfg.initial_cg_steps = 10;
  cfg.online_cg_steps = 2;
  return cfg;
}

ts::TimeSeries MakeSensor(int points, ts::DatasetKind kind = ts::DatasetKind::kMall) {
  auto data = ts::MakeDataset({kind, 1, points, 64, 11, true});
  return (*data)[0];
}

// ---------------------------------------------------------------- metrics

TEST(MetricsTest, PerfectPredictionGivesZeroMae) {
  MetricAccumulator acc;
  acc.Add(1.0, {1.0, 0.5});
  acc.Add(-2.0, {-2.0, 0.5});
  EXPECT_DOUBLE_EQ(acc.Mae(), 0.0);
  EXPECT_DOUBLE_EQ(acc.Rmse(), 0.0);
  EXPECT_EQ(acc.count(), 2u);
}

TEST(MetricsTest, MaeAndRmseMatchHandComputation) {
  MetricAccumulator acc;
  acc.Add(0.0, {1.0, 1.0});   // |err| = 1
  acc.Add(0.0, {-3.0, 1.0});  // |err| = 3
  EXPECT_DOUBLE_EQ(acc.Mae(), 2.0);
  EXPECT_DOUBLE_EQ(acc.Rmse(), std::sqrt(5.0));
}

TEST(MetricsTest, MnlpdPrefersCalibratedUncertainty) {
  // Same error; the model admitting the right variance scores better.
  MetricAccumulator overconfident;
  overconfident.Add(1.0, {0.0, 0.01});
  MetricAccumulator calibrated;
  calibrated.Add(1.0, {0.0, 1.0});
  EXPECT_LT(calibrated.Mnlpd(), overconfident.Mnlpd());
}

TEST(MetricsTest, MergeCombinesCounts) {
  MetricAccumulator a;
  a.Add(0.0, {1.0, 1.0});
  MetricAccumulator b;
  b.Add(0.0, {3.0, 1.0});
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mae(), 2.0);
}

// ----------------------------------------------------------------- engine

TEST(SensorEngineTest, CreateValidatesConfig) {
  simgpu::Device device;
  SmilerConfig cfg = TestConfig();
  cfg.use_ensemble = false;  // but EKV/ELV are not singleton
  auto engine = SensorEngine::Create(&device, MakeSensor(600), cfg,
                                     PredictorKind::kAr);
  EXPECT_FALSE(engine.ok());
}

TEST(SensorEngineTest, ArContinuousPredictionRuns) {
  simgpu::Device device;
  auto sensor = MakeSensor(800);
  // Hold out the tail as truth.
  std::vector<double> all = sensor.values();
  const int warmup = 600;
  ts::TimeSeries history("s",
                         std::vector<double>(all.begin(), all.begin() + warmup));
  auto engine = SensorEngine::Create(&device, history, TestConfig(),
                                     PredictorKind::kAr);
  ASSERT_TRUE(engine.ok());
  MetricAccumulator acc;
  for (int step = 0; step < 50; ++step) {
    auto pred = engine->Predict();
    ASSERT_TRUE(pred.ok());
    EXPECT_TRUE(std::isfinite(pred->mean));
    EXPECT_GT(pred->variance, 0.0);
    const double truth = all[warmup + step];  // horizon = 1
    acc.Add(truth, *pred);
    ASSERT_TRUE(engine->Observe(truth).ok());
  }
  EXPECT_EQ(engine->now(), warmup + 50 - 1);
  // On strongly seasonal MALL data the semi-lazy AR beats a unit-variance
  // zero predictor by a wide margin.
  EXPECT_LT(acc.Mae(), 0.5);
}

TEST(SensorEngineTest, GpContinuousPredictionRuns) {
  simgpu::Device device;
  auto sensor = MakeSensor(700);
  std::vector<double> all = sensor.values();
  const int warmup = 600;
  ts::TimeSeries history("s",
                         std::vector<double>(all.begin(), all.begin() + warmup));
  auto engine = SensorEngine::Create(&device, history, TestConfig(),
                                     PredictorKind::kGp);
  ASSERT_TRUE(engine.ok());
  MetricAccumulator acc;
  for (int step = 0; step < 20; ++step) {
    EngineStats stats;
    auto pred = engine->Predict(&stats);
    ASSERT_TRUE(pred.ok());
    EXPECT_GT(stats.search_seconds + stats.predict_seconds, 0.0);
    const double truth = all[warmup + step];
    acc.Add(truth, *pred);
    ASSERT_TRUE(engine->Observe(truth).ok());
  }
  EXPECT_LT(acc.Mae(), 0.6);
  EXPECT_TRUE(std::isfinite(acc.Mnlpd()));
}

TEST(SensorEngineTest, MultiStepHorizonTargetsRightTime) {
  simgpu::Device device;
  SmilerConfig cfg = TestConfig();
  cfg.horizon = 5;
  auto sensor = MakeSensor(800);
  std::vector<double> all = sensor.values();
  const int warmup = 650;
  ts::TimeSeries history("s",
                         std::vector<double>(all.begin(), all.begin() + warmup));
  auto engine =
      SensorEngine::Create(&device, history, cfg, PredictorKind::kAr);
  ASSERT_TRUE(engine.ok());
  MetricAccumulator acc;
  for (int step = 0; step < 40; ++step) {
    auto pred = engine->Predict();
    ASSERT_TRUE(pred.ok());
    acc.Add(all[warmup + step + cfg.horizon - 1], *pred);
    ASSERT_TRUE(engine->Observe(all[warmup + step]).ok());
  }
  EXPECT_LT(acc.Mae(), 0.8);
}

TEST(SensorEngineTest, EnsembleWeightsAdaptDuringRun) {
  simgpu::Device device;
  auto sensor = MakeSensor(800, ts::DatasetKind::kRoad);
  std::vector<double> all = sensor.values();
  const int warmup = 650;
  ts::TimeSeries history("s",
                         std::vector<double>(all.begin(), all.begin() + warmup));
  auto engine = SensorEngine::Create(&device, history, TestConfig(),
                                     PredictorKind::kAr);
  ASSERT_TRUE(engine.ok());
  for (int step = 0; step < 30; ++step) {
    ASSERT_TRUE(engine->Predict().ok());
    ASSERT_TRUE(engine->Observe(all[warmup + step]).ok());
  }
  // Weights must have moved off the uniform initialisation.
  const auto& e = engine->ensemble();
  bool moved = false;
  for (int i = 0; i < 2 && !moved; ++i) {
    for (int j = 0; j < 2 && !moved; ++j) {
      if (std::fabs(e.Weight(i, j) - 0.25) > 1e-6) moved = true;
    }
  }
  EXPECT_TRUE(moved);
}

TEST(SensorEngineTest, RepeatedPredictsKeepOnePendingForecast) {
  // A predict-only client must not grow the engine: forecasts for the
  // same target time replace each other instead of queueing up.
  simgpu::Device device;
  auto engine = SensorEngine::Create(&device, MakeSensor(700), TestConfig(),
                                     PredictorKind::kAr);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(engine->Predict().ok());
  EXPECT_EQ(engine->Snapshot().pending.size(), 1u);
}

TEST(SensorEngineTest, RepeatedPredictsAdaptWeightsOnce) {
  // Predict, Predict, Predict, Observe must adapt the ensemble exactly
  // like Predict, Observe: an observation resolves one forecast per
  // target time, however often that forecast was asked for.
  simgpu::Device device;
  auto sensor = MakeSensor(800, ts::DatasetKind::kRoad);
  std::vector<double> all = sensor.values();
  const int warmup = 650;
  ts::TimeSeries history("s",
                         std::vector<double>(all.begin(), all.begin() + warmup));
  auto once = SensorEngine::Create(&device, history, TestConfig(),
                                   PredictorKind::kAr);
  auto thrice = SensorEngine::Create(&device, history, TestConfig(),
                                     PredictorKind::kAr);
  ASSERT_TRUE(once.ok());
  ASSERT_TRUE(thrice.ok());
  for (int step = 0; step < 40; ++step) {
    auto want = once->Predict();
    ASSERT_TRUE(want.ok());
    for (int repeat = 0; repeat < 3; ++repeat) {
      auto got = thrice->Predict();
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->mean, want->mean) << "step " << step;
      EXPECT_EQ(got->variance, want->variance) << "step " << step;
    }
    ASSERT_TRUE(once->Observe(all[warmup + step]).ok());
    ASSERT_TRUE(thrice->Observe(all[warmup + step]).ok());
    const predictors::Ensemble::State a = once->ensemble().ExportState();
    const predictors::Ensemble::State b = thrice->ensemble().ExportState();
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t c = 0; c < a.cells.size(); ++c) {
      EXPECT_EQ(a.cells[c].weight, b.cells[c].weight)
          << "step " << step << " cell " << c;
      EXPECT_EQ(a.cells[c].awake, b.cells[c].awake);
      EXPECT_EQ(a.cells[c].counter, b.cells[c].counter);
      EXPECT_EQ(a.cells[c].remaining, b.cells[c].remaining);
    }
    EXPECT_EQ(a.z_ewma, b.z_ewma) << "step " << step;
    EXPECT_EQ(a.vif, b.vif) << "step " << step;
  }
}

TEST(SensorEngineTest, SingletonConfigMatchesSmilerNeAblation) {
  simgpu::Device device;
  SmilerConfig cfg = TestConfig();
  cfg.use_ensemble = false;
  cfg.elv = {32};
  cfg.ekv = {8};
  auto engine = SensorEngine::Create(&device, MakeSensor(700), cfg,
                                     PredictorKind::kAr);
  ASSERT_TRUE(engine.ok());
  auto pred = engine->Predict();
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(std::isfinite(pred->mean));
}

// ---------------------------------------------------------------- manager

TEST(MultiSensorManagerTest, RunsAllSensors) {
  simgpu::Device device;
  auto data = ts::MakeDataset({ts::DatasetKind::kMall, 4, 700, 64, 17, true});
  ASSERT_TRUE(data.ok());
  auto manager = MultiSensorManager::Create(&device, *data, TestConfig(),
                                            PredictorKind::kAr);
  ASSERT_TRUE(manager.ok());
  EXPECT_EQ(manager->num_sensors(), 4u);
  std::vector<predictors::Prediction> preds;
  EngineStats stats;
  ASSERT_TRUE(manager->PredictAll(&preds, &stats).ok());
  EXPECT_EQ(preds.size(), 4u);
  for (const auto& p : preds) EXPECT_TRUE(std::isfinite(p.mean));
  ASSERT_TRUE(manager->ObserveAll({0.0, 0.1, -0.1, 0.2}).ok());
  EXPECT_FALSE(manager->ObserveAll({0.0}).ok());  // size mismatch
}

TEST(MultiSensorManagerTest, RejectsEmpty) {
  simgpu::Device device;
  auto manager = MultiSensorManager::Create(&device, {}, TestConfig(),
                                            PredictorKind::kAr);
  EXPECT_FALSE(manager.ok());
}


TEST(MultiSensorManagerTest, ShardsAcrossMultipleDevices) {
  simgpu::Device dev_a;
  simgpu::Device dev_b;
  auto data = ts::MakeDataset({ts::DatasetKind::kNet, 4, 700, 64, 19, true});
  ASSERT_TRUE(data.ok());
  auto manager = MultiSensorManager::Create({&dev_a, &dev_b}, *data,
                                            TestConfig(), PredictorKind::kAr);
  ASSERT_TRUE(manager.ok());
  // Round-robin: both devices carry half the fleet's memory.
  EXPECT_GT(dev_a.memory_used(), 0u);
  EXPECT_GT(dev_b.memory_used(), 0u);
  EXPECT_EQ(dev_a.memory_used(), dev_b.memory_used());
  std::vector<predictors::Prediction> preds;
  ASSERT_TRUE(manager->PredictAll(&preds).ok());
  EXPECT_EQ(preds.size(), 4u);
}

TEST(MultiSensorManagerTest, MultiDeviceRejectsBadInputs) {
  auto data = ts::MakeDataset({ts::DatasetKind::kNet, 1, 700, 64, 19, true});
  ASSERT_TRUE(data.ok());
  auto none = MultiSensorManager::Create(std::vector<simgpu::Device*>{},
                                         *data, TestConfig(),
                                         PredictorKind::kAr);
  EXPECT_FALSE(none.ok());
  auto null_dev = MultiSensorManager::Create(
      std::vector<simgpu::Device*>{nullptr}, *data, TestConfig(),
      PredictorKind::kAr);
  EXPECT_FALSE(null_dev.ok());
}

TEST(MultiSensorManagerTest, CapacityOverflowSurfacesResourceExhausted) {
  // One device too small for its share of the fleet.
  simgpu::Device tiny(/*memory_budget_bytes=*/1024);
  auto data = ts::MakeDataset({ts::DatasetKind::kNet, 2, 700, 64, 19, true});
  ASSERT_TRUE(data.ok());
  auto manager = MultiSensorManager::Create({&tiny}, *data, TestConfig(),
                                            PredictorKind::kAr);
  ASSERT_FALSE(manager.ok());
  EXPECT_EQ(manager.status().code(), StatusCode::kResourceExhausted);
}

TEST(MultiSensorManagerTest, PerSensorFailureIsIsolated) {
  auto data = ts::MakeDataset({ts::DatasetKind::kNet, 2, 700, 64, 23, true});
  ASSERT_TRUE(data.ok());

  // Probe one sensor's footprint so we can size a device that fits the
  // engine at build time but runs out as its index grows online.
  std::size_t footprint = 0;
  {
    simgpu::Device probe;
    auto engine = SensorEngine::Create(&probe, (*data)[1], TestConfig(),
                                       PredictorKind::kAr);
    ASSERT_TRUE(engine.ok());
    footprint = probe.memory_used();
  }

  simgpu::Device roomy;
  simgpu::Device cramped(footprint + 256);
  auto manager = MultiSensorManager::Create({&roomy, &cramped}, *data,
                                            TestConfig(), PredictorKind::kAr);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  // Stream observations until sensor 1 blows its device budget. The fleet
  // call must keep serving sensor 0 (isolation), surface the per-sensor
  // codes, and summarize with the first error in sensor order.
  std::vector<Status> statuses;
  bool saw_failure = false;
  for (int step = 0; step < 2000 && !saw_failure; ++step) {
    Status summary = manager->ObserveAll({0.1, 0.2}, &statuses);
    ASSERT_EQ(statuses.size(), 2u);
    ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
    if (!statuses[1].ok()) {
      saw_failure = true;
      EXPECT_EQ(statuses[1].code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(summary, statuses[1]);
    } else {
      EXPECT_TRUE(summary.ok());
    }
  }
  ASSERT_TRUE(saw_failure) << "cramped device never ran out of budget";

  // The healthy sensor still predicts after its neighbor failed.
  std::vector<predictors::Prediction> preds;
  Status summary = manager->PredictAll(&preds, nullptr, &statuses);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  EXPECT_TRUE(std::isfinite(preds[0].mean));
  if (!statuses[1].ok()) {
    EXPECT_EQ(summary, statuses[1]);
  } else {
    EXPECT_TRUE(summary.ok());
  }
}

TEST(MultiSensorManagerTest, AdoptRestoredEngines) {
  simgpu::Device device;
  auto data = ts::MakeDataset({ts::DatasetKind::kMall, 2, 700, 64, 29, true});
  ASSERT_TRUE(data.ok());
  std::vector<SensorEngine> engines;
  for (const auto& sensor : *data) {
    auto engine = SensorEngine::Create(&device, sensor, TestConfig(),
                                       PredictorKind::kAr);
    ASSERT_TRUE(engine.ok());
    engines.push_back(std::move(*engine));
  }
  auto manager = MultiSensorManager::Adopt(std::move(engines));
  ASSERT_TRUE(manager.ok());
  EXPECT_EQ(manager->num_sensors(), 2u);
  std::vector<predictors::Prediction> preds;
  EXPECT_TRUE(manager->PredictAll(&preds).ok());
  EXPECT_EQ(preds.size(), 2u);

  EXPECT_FALSE(MultiSensorManager::Adopt({}).ok());
}

}  // namespace
}  // namespace core
}  // namespace smiler
