// Equivalence suite for the filter-and-verify kNN core: the index's
// Search — threshold seeding, tau tightening, late pruning, early-abandoned
// DTW, parallel item fan-out — must return results bitwise-identical to a
// reference scan that pays full CompressedDtw for every candidate. Any
// drift (a neighbor admitted with a rounded distance, a candidate pruned
// one ULP too eagerly) fails here before it can bias the predictor.

#include <gtest/gtest.h>

#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "dtw/dtw.h"
#include "index/kselect.h"
#include "index/smiler_index.h"
#include "simgpu/device.h"
#include "ts/series.h"

namespace smiler {
namespace index {
namespace {

std::vector<double> RandomWalk(Rng* rng, int n) {
  std::vector<double> v(n);
  double x = 0.0;
  for (int i = 0; i < n; ++i) {
    x += rng->Normal();
    v[i] = x;
  }
  return v;
}

SmilerConfig SmallConfig() {
  SmilerConfig cfg;
  cfg.rho = 4;
  cfg.omega = 8;
  cfg.elv = {16, 24, 40};
  cfg.ekv = {2, 4, 8};
  return cfg;
}

// Reference scan: full (never abandoned) compressed DTW for every
// candidate, then the same k-selection the index uses, so tie-breaking
// semantics are shared and the comparison can demand bit equality.
std::vector<Neighbor> ReferenceKnn(const std::vector<double>& series, int d,
                                   int rho, int k, int reserve_horizon) {
  const long n = static_cast<long>(series.size());
  const long t_count = n - d - reserve_horizon + 1;
  const double* q = series.data() + n - d;
  std::vector<double> scratch(dtw::CompressedDtwScratchSize(rho));
  std::vector<Neighbor> all;
  all.reserve(static_cast<std::size_t>(std::max<long>(0, t_count)));
  for (long t = 0; t < t_count; ++t) {
    all.push_back(Neighbor{
        t, dtw::CompressedDtw(q, series.data() + t, d, rho, scratch.data())});
  }
  return KSelectSmallest(std::move(all), k);
}

void ExpectBitwiseEqual(const SmilerIndex& idx, const SuffixKnnResult& got,
                        const SuffixSearchOptions& opts) {
  const SmilerConfig& cfg = idx.config();
  ASSERT_EQ(got.items.size(), cfg.elv.size());
  for (std::size_t i = 0; i < cfg.elv.size(); ++i) {
    const std::vector<Neighbor> want =
        ReferenceKnn(idx.series(), cfg.elv[i], cfg.rho, opts.k,
                     opts.reserve_horizon);
    ASSERT_EQ(got.items[i].neighbors.size(), want.size()) << "item " << i;
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got.items[i].neighbors[j].t, want[j].t)
          << "item " << i << " rank " << j;
      // Bit equality, not a tolerance: the cascade must never touch the
      // arithmetic of a surviving neighbor.
      EXPECT_EQ(got.items[i].neighbors[j].dist, want[j].dist)
          << "item " << i << " rank " << j;
    }
  }
}

TEST(IndexEquivalenceTest, StreamedSearchMatchesReferenceScanBitwise) {
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  Rng rng(71);
  ts::TimeSeries s("t", RandomWalk(&rng, 400));
  auto idx = SmilerIndex::Build(&device, s, cfg);
  ASSERT_TRUE(idx.ok());

  SuffixSearchOptions opts;
  opts.k = 8;
  for (int step = 0; step < 50; ++step) {
    auto result = idx->Search(opts);
    ASSERT_TRUE(result.ok()) << result.status().message();
    ExpectBitwiseEqual(*idx, *result, opts);
    ASSERT_TRUE(idx->Append(rng.Normal()).ok());
  }
}

TEST(IndexEquivalenceTest, HeapFallbacksOnTinySharedMemoryStayExact) {
  // A 256-byte arena holds neither the lane-major verify scratch nor the
  // longest item query, so every verify block runs on heap scratch and
  // the d = 40 blocks also read the query from global memory.
  SmilerConfig cfg = SmallConfig();
  simgpu::Device device(/*memory_budget_bytes=*/6ULL << 30,
                        /*shared_memory_bytes=*/256);
  ASSERT_LT(device.shared_memory_bytes(),
            dtw::CompressedDtwBatchScratchSize(cfg.rho) * sizeof(double));
  ASSERT_LT(device.shared_memory_bytes(), cfg.elv.back() * sizeof(double));
  Rng rng(75);
  ts::TimeSeries s("t", RandomWalk(&rng, 400));
  auto idx = SmilerIndex::Build(&device, s, cfg);
  ASSERT_TRUE(idx.ok());

  SuffixSearchOptions opts;
  opts.k = 8;
  for (int step = 0; step < 30; ++step) {
    auto result = idx->Search(opts);
    ASSERT_TRUE(result.ok()) << result.status().message();
    ExpectBitwiseEqual(*idx, *result, opts);
    ASSERT_TRUE(idx->Append(rng.Normal()).ok());
  }
}

TEST(IndexEquivalenceTest, AllBoundModesAndKsStayExact) {
  for (LowerBoundMode mode :
       {LowerBoundMode::kLbeq, LowerBoundMode::kLbec, LowerBoundMode::kLben}) {
    // k = 6 verifies its seeds as one lane batch plus a scalar tail.
    for (int k : {1, 4, 6, 32}) {
      simgpu::Device device;
      SmilerConfig cfg = SmallConfig();
      Rng rng(72);
      ts::TimeSeries s("t", RandomWalk(&rng, 350));
      auto idx = SmilerIndex::Build(&device, s, cfg);
      ASSERT_TRUE(idx.ok());
      SuffixSearchOptions opts;
      opts.k = k;
      opts.bound = mode;
      for (int step = 0; step < 12; ++step) {
        auto result = idx->Search(opts);
        ASSERT_TRUE(result.ok());
        ExpectBitwiseEqual(*idx, *result, opts);
        ASSERT_TRUE(idx->Append(rng.Normal()).ok());
      }
    }
  }
}

TEST(IndexEquivalenceTest, SeedTopUpKeepsShrunkenHorizonExact) {
  // Growing reserve_horizon shrinks the candidate range, so previous
  // neighbors with large t fail the t < t_count cut and the seed set must
  // be topped up from the lower-bound table; without the top-up, tau would
  // be looser than the true k-th distance yet still believed exact.
  simgpu::Device device;
  SmilerConfig cfg = SmallConfig();
  Rng rng(73);
  ts::TimeSeries s("t", RandomWalk(&rng, 380));
  auto idx = SmilerIndex::Build(&device, s, cfg);
  ASSERT_TRUE(idx.ok());

  SuffixSearchOptions opts;
  opts.k = 8;
  for (int step = 0; step < 30; ++step) {
    // Oscillate the horizon so each search sees a candidate range that
    // sometimes cuts deep into the previous step's neighbor set.
    opts.reserve_horizon = (step % 3 == 0) ? 120 : 1;
    auto result = idx->Search(opts);
    ASSERT_TRUE(result.ok());
    ExpectBitwiseEqual(*idx, *result, opts);
    ASSERT_TRUE(idx->Append(rng.Normal()).ok());
  }
}

TEST(IndexEquivalenceTest, ColdStartMatchesWarmResults) {
  // A fresh index (no previous kNN, lower-bound-seeded threshold) must
  // agree with the reference as well — the non-reuse seed path is the one
  // exercised on the first search after Build.
  simgpu::Device device_a;
  simgpu::Device device_b;
  SmilerConfig cfg = SmallConfig();
  Rng rng(74);
  std::vector<double> data = RandomWalk(&rng, 420);
  auto warm = SmilerIndex::Build(&device_a, ts::TimeSeries("t", data), cfg);
  ASSERT_TRUE(warm.ok());
  SuffixSearchOptions opts;
  opts.k = 8;
  for (int step = 0; step < 10; ++step) {
    ASSERT_TRUE(warm->Search(opts).ok());
    ASSERT_TRUE(warm->Append(rng.Normal()).ok());
  }
  auto cold =
      SmilerIndex::Build(&device_b, ts::TimeSeries("t", warm->series()), cfg);
  ASSERT_TRUE(cold.ok());
  auto warm_result = warm->Search(opts);
  auto cold_result = cold->Search(opts);
  ASSERT_TRUE(warm_result.ok());
  ASSERT_TRUE(cold_result.ok());
  ExpectBitwiseEqual(*warm, *warm_result, opts);
  ExpectBitwiseEqual(*cold, *cold_result, opts);
}

}  // namespace
}  // namespace index
}  // namespace smiler
