// Bitwise-equivalence suite for the cross-sensor batched GP hot path this
// PR introduces:
//
//  1. gp::PairwiseSquaredDistancesOnDeviceBatch — one fused
//     "gp.gram_batch" launch for N Gram jobs — must match the solo
//     "gp.gram" launch AND the host function bit-for-bit, per job.
//  2. gp::GpRegressor::FitAndPredict — the fused 2-RHS solve — must match
//     Fit(...) followed by Predict(xstar) bit-for-bit.
//  3. End to end: a SensorEngine fleet driven through the split
//     BeginPredict → batched Gram launch → FinishPredict pipeline (what
//     the serve-layer batch former does) must predict bitwise-identically
//     to monolithic per-engine Predict() calls.
//
// These are the contracts that let the serve layer fuse device launches
// across sensors without perturbing a single prediction.

#include <gtest/gtest.h>

#include <cstddef>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/manager.h"
#include "gp/gp_regressor.h"
#include "gp/kernel.h"
#include "la/matrix.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "simgpu/device.h"
#include "ts/datasets.h"

namespace smiler {
namespace {

la::Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  la::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = rng->Uniform(-2.0, 2.0);
    }
  }
  return m;
}

void ExpectBitwiseEqual(const la::Matrix& a, const la::Matrix& b,
                        const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      // EXPECT_EQ on doubles is exact — bitwise is the contract, not
      // within-epsilon.
      EXPECT_EQ(a(i, j), b(i, j)) << what << " entry (" << i << "," << j
                                  << ")";
    }
  }
}

TEST(GramBatchEquivalenceTest, BatchMatchesSoloAndHostBitwise) {
  simgpu::Device device;
  Rng rng(0xBA7C4ED5EEDULL);
  // Deliberately heterogeneous job sizes, including the degenerate k < 2
  // jobs that contribute no blocks to the fused grid (k = 0 and k = 1
  // must still come back as their zero matrix) and narrow dimensions.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {7, 16}, {0, 16}, {12, 24}, {1, 8}, {5, 16}, {23, 24}, {2, 4},
      {33, 1}, {33, 3}};
  std::vector<la::Matrix> inputs;
  for (const auto& [k, dim] : shapes) inputs.push_back(RandomMatrix(k, dim, &rng));

  std::vector<la::Matrix> batched(inputs.size());
  std::vector<gp::GramBatchJob> jobs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    jobs.push_back(gp::GramBatchJob{&inputs[i], &batched[i]});
  }
  ASSERT_TRUE(gp::PairwiseSquaredDistancesOnDeviceBatch(&device, jobs).ok());

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    auto solo = gp::PairwiseSquaredDistancesOnDevice(&device, inputs[i]);
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    ExpectBitwiseEqual(batched[i], *solo, "batch vs solo, job " +
                                              std::to_string(i));
    ExpectBitwiseEqual(batched[i], gp::PairwiseSquaredDistances(inputs[i]),
                       "batch vs host, job " + std::to_string(i));
  }
}

TEST(GramBatchEquivalenceTest, EmptyAndDegenerateBatches) {
  simgpu::Device device;
  // No jobs at all: trivially OK, no launch.
  EXPECT_TRUE(gp::PairwiseSquaredDistancesOnDeviceBatch(&device, {}).ok());
  // Only degenerate jobs: still OK (zero blocks — no launch), outputs are
  // correctly sized zero matrices.
  Rng rng(99);
  la::Matrix one = RandomMatrix(1, 8, &rng);
  la::Matrix empty;
  la::Matrix out_one, out_empty;
  std::vector<gp::GramBatchJob> jobs = {{&one, &out_one}, {&empty, &out_empty}};
  ASSERT_TRUE(gp::PairwiseSquaredDistancesOnDeviceBatch(&device, jobs).ok());
  ASSERT_EQ(out_one.rows(), 1u);
  ASSERT_EQ(out_one.cols(), 1u);
  EXPECT_EQ(out_one(0, 0), 0.0);
  EXPECT_EQ(out_empty.rows(), 0u);
}

TEST(FitAndPredictTest, MatchesSplitFitThenPredictBitwise) {
  Rng rng(0xF17A2DULL);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t k = 4 + 3 * static_cast<std::size_t>(trial);
    const std::size_t dim = 8 + 2 * static_cast<std::size_t>(trial % 3);
    la::Matrix x = RandomMatrix(k, dim, &rng);
    std::vector<double> y(k);
    for (double& v : y) v = rng.Uniform(-1.0, 1.0);
    std::vector<double> xstar(dim);
    for (double& v : xstar) v = rng.Uniform(-2.0, 2.0);
    const gp::SeKernel kernel(0.1 * trial, 0.3, -1.0 + 0.05 * trial);

    auto split = gp::GpRegressor::Fit(x, y, kernel);
    ASSERT_TRUE(split.ok()) << split.status().ToString();
    const gp::Prediction expected = split->Predict(xstar.data());

    auto fused = gp::GpRegressor::FitAndPredict(x, y, kernel, xstar.data());
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    EXPECT_EQ(fused->mean, expected.mean) << "trial " << trial;
    EXPECT_EQ(fused->variance, expected.variance) << "trial " << trial;
  }
}

TEST(FitAndPredictTest, MatchesSplitPathWithCachedGram) {
  Rng rng(0x6A3BULL);
  la::Matrix x = RandomMatrix(10, 16, &rng);
  std::vector<double> y(10);
  for (double& v : y) v = rng.Uniform(-1.0, 1.0);
  std::vector<double> xstar(16, 0.5);
  const gp::SeKernel kernel(0.0, 0.2, -1.2);
  const la::Matrix gram = gp::PairwiseSquaredDistances(x);
  const la::ConstMatrixView gram_view(gram);

  auto split = gp::GpRegressor::Fit(x, y, kernel, &gram_view);
  ASSERT_TRUE(split.ok());
  const gp::Prediction expected = split->Predict(xstar.data());
  auto fused =
      gp::GpRegressor::FitAndPredict(x, y, kernel, xstar.data(), &gram_view);
  ASSERT_TRUE(fused.ok());
  EXPECT_EQ(fused->mean, expected.mean);
  EXPECT_EQ(fused->variance, expected.variance);
}

TEST(FitAndPredictTest, RejectsDegenerateInputs) {
  const gp::SeKernel kernel;
  std::vector<double> xstar(4, 0.0);
  auto empty = gp::GpRegressor::FitAndPredict(la::Matrix(), {}, kernel,
                                              xstar.data());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
  Rng rng(3);
  la::Matrix x = RandomMatrix(3, 4, &rng);
  auto mismatch = gp::GpRegressor::FitAndPredict(x, {1.0, 2.0}, kernel,
                                                 xstar.data());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
}

// --- End to end: the serve-layer batch former's exact sequence ------------

SmilerConfig EngineConfig() {
  SmilerConfig cfg;
  cfg.rho = 4;
  cfg.omega = 8;
  cfg.elv = {16, 24};
  cfg.ekv = {4, 8};
  cfg.initial_cg_steps = 10;
  cfg.online_cg_steps = 2;
  return cfg;
}

TEST(BatchedEngineEquivalenceTest, SplitBatchedPredictMatchesMonolithic) {
  constexpr int kSensors = 3;
  constexpr int kSteps = 6;
  simgpu::Device device_solo;
  simgpu::Device device_batch;
  auto data = ts::MakeDataset(
      {ts::DatasetKind::kRoad, kSensors, 700, 64, 2015, true});
  ASSERT_TRUE(data.ok());

  std::vector<core::SensorEngine> solo, batch;
  for (int s = 0; s < kSensors; ++s) {
    auto a = core::SensorEngine::Create(&device_solo, (*data)[s],
                                        EngineConfig(),
                                        core::PredictorKind::kGp);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    solo.push_back(std::move(*a));
    auto b = core::SensorEngine::Create(&device_batch, (*data)[s],
                                        EngineConfig(),
                                        core::PredictorKind::kGp);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    batch.push_back(std::move(*b));
  }

  Rng rng(0xE2E5EEDULL);
  for (int step = 0; step < kSteps; ++step) {
    // Monolithic fleet: one Predict per engine.
    std::vector<predictors::Prediction> expected;
    for (auto& engine : solo) {
      auto p = engine.Predict();
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      expected.push_back(*p);
    }
    // Batched fleet: the serve-layer sequence — BeginPredict everywhere,
    // ONE fused gram launch across all engines, then FinishPredict.
    std::vector<core::PendingPredict> pendings;
    for (auto& engine : batch) {
      auto pending = engine.BeginPredict();
      ASSERT_TRUE(pending.ok()) << pending.status().ToString();
      pendings.push_back(std::move(*pending));
    }
    std::vector<gp::GramBatchJob> jobs;
    for (auto& pending : pendings) {
      for (auto& column : pending.columns) {
        if (column.x.rows() == 0) continue;
        jobs.push_back(gp::GramBatchJob{&column.x, &column.gram});
      }
    }
    ASSERT_TRUE(
        gp::PairwiseSquaredDistancesOnDeviceBatch(&device_batch, jobs).ok());
    for (int s = 0; s < kSensors; ++s) {
      pendings[s].grams_ready = true;
      auto p = batch[s].FinishPredict(std::move(pendings[s]));
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      EXPECT_EQ(p->mean, expected[s].mean)
          << "step " << step << " sensor " << s;
      EXPECT_EQ(p->variance, expected[s].variance)
          << "step " << step << " sensor " << s;
    }
    // Advance both fleets identically (warm-start kernels, ensemble
    // weights, and pending forecasts must stay in lockstep too).
    for (int s = 0; s < kSensors; ++s) {
      const double value = rng.Uniform(-1.5, 1.5);
      ASSERT_TRUE(solo[s].Observe(value).ok());
      ASSERT_TRUE(batch[s].Observe(value).ok());
    }
  }
}

// The server-level seam: AsyncPredict bursts for distinct GP sensors
// must reach ExecutePredictFleet's fused gram launch (the unit above
// drives the engines directly; this drives them through the shard
// worker's batch former). Batch formation is timing-dependent — the
// worker may claim a lone request before the rest of the burst lands —
// so the burst retries until a fused launch is observed; what is
// asserted deterministically is that it happens within the bound and
// that every response stays OK.
TEST(ServeFleetBatchTest, AsyncBurstReachesFusedGramLaunch) {
  constexpr std::size_t kSensors = 4;
  static simgpu::Device device;  // outlives the server's engines
  auto data = ts::MakeDataset(
      {ts::DatasetKind::kRoad, static_cast<int>(kSensors), 700, 64, 2015,
       true});
  ASSERT_TRUE(data.ok());
  auto manager = core::MultiSensorManager::Create(
      &device, *data, EngineConfig(), core::PredictorKind::kGp);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  serve::ServerOptions options;
  options.num_shards = 1;  // all sensors on one shard -> one batch former
  options.queue_capacity = 256;
  auto server =
      serve::PredictionServer::Create(std::move(*manager), options);
  ASSERT_TRUE(server.ok());

  obs::Counter& launches =
      obs::Registry::Global().GetCounter("serve.batch.gram_launches");
  const std::uint64_t before = launches.value();
  for (int round = 0; round < 30 && launches.value() == before; ++round) {
    std::vector<std::future<serve::Response>> burst;
    for (std::size_t s = 0; s < kSensors; ++s) {
      burst.push_back((*server)->AsyncPredict(s));
    }
    for (auto& f : burst) {
      ASSERT_TRUE(f.get().status.ok());
    }
    // Observe every sensor so the next round's Predicts are fresh work
    // (cached responses and unexpired duplicates bypass the fleet path).
    for (std::size_t s = 0; s < kSensors; ++s) {
      ASSERT_TRUE((*server)->Observe(s, 0.05 * static_cast<double>(s)).ok());
    }
  }
  EXPECT_GT(launches.value(), before)
      << "no AsyncPredict burst ever formed a multi-sensor GP batch";
  (*server)->Shutdown();
}

}  // namespace
}  // namespace smiler
