// Property tests of the DTW stack on structured (seasonal / quantized)
// inputs and through the simulated-GPU execution path — complements the
// random-walk sweeps in dtw_test.cc.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/math_utils.h"
#include "common/rng.h"
#include "dtw/dtw.h"
#include "dtw/envelope.h"
#include "dtw/lower_bounds.h"
#include "simgpu/device.h"

namespace smiler {
namespace dtw {
namespace {

std::vector<double> Seasonal(Rng* rng, int n, int period, double noise) {
  std::vector<double> v(n);
  for (int i = 0; i < n; ++i) {
    v[i] = std::sin(2 * M_PI * i / period) + noise * rng->Normal();
  }
  return v;
}

TEST(DtwPropertyTest, DtwNeverExceedsSquaredEuclidean) {
  // The diagonal path is always admissible, so banded DTW is bounded by
  // the squared Euclidean distance for any rho.
  Rng rng(300);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 8 + static_cast<int>(rng.UniformInt(80));
    std::vector<double> q = Seasonal(&rng, n, 24, 0.3);
    std::vector<double> c = Seasonal(&rng, n, 24, 0.3);
    double euclid = 0.0;
    for (int i = 0; i < n; ++i) euclid += SquaredDist(q[i], c[i]);
    for (int rho : {0, 3, 8}) {
      ASSERT_LE(BandedDtw(q.data(), c.data(), n, rho), euclid + 1e-9);
    }
  }
}

TEST(DtwPropertyTest, DtwIsNonNegativeAndZeroOnlyOnWarpableMatch) {
  Rng rng(301);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 4 + static_cast<int>(rng.UniformInt(60));
    std::vector<double> q = Seasonal(&rng, n, 16, 0.2);
    std::vector<double> c = Seasonal(&rng, n, 16, 0.2);
    const double d = BandedDtw(q.data(), c.data(), n, 5);
    ASSERT_GE(d, 0.0);
  }
  // Exact self-match is zero even through warping.
  std::vector<double> q = Seasonal(&rng, 50, 16, 0.0);
  EXPECT_DOUBLE_EQ(BandedDtw(q.data(), q.data(), 50, 5), 0.0);
}

TEST(DtwPropertyTest, PhaseShiftWithinBandIsForgiven) {
  // A clean sinusoid shifted by s samples: DTW with rho >= s is ~0 in the
  // interior; Euclidean (rho = 0) pays the full phase penalty.
  const int n = 96;
  const int shift = 4;
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (int i = 0; i < n; ++i) {
    a[i] = std::sin(2 * M_PI * i / 32.0);
    b[i] = std::sin(2 * M_PI * (i + shift) / 32.0);
  }
  const double banded = BandedDtw(a.data(), b.data(), n, 8);
  const double euclid = BandedDtw(a.data(), b.data(), n, 0);
  EXPECT_LT(banded, 0.1 * euclid);
}

TEST(DtwPropertyTest, QuantizedSeriesTiesHandled) {
  // Integer-valued (car-park-like) series produce exact distance ties;
  // everything must stay exact and finite.
  Rng rng(302);
  std::vector<double> q(64);
  std::vector<double> c(64);
  for (int i = 0; i < 64; ++i) {
    q[i] = static_cast<double>(rng.UniformInt(4));
    c[i] = static_cast<double>(rng.UniformInt(4));
  }
  const double ref = BandedDtw(q.data(), c.data(), 64, 8);
  EXPECT_DOUBLE_EQ(CompressedDtw(q.data(), c.data(), 64, 8), ref);
  const Envelope env_q = ComputeEnvelope(q, 8);
  EXPECT_LE(Lbeq(env_q, c.data(), 64), ref + 1e-12);
}

TEST(DtwPropertyTest, CompressedDtwRunsInSharedMemoryArena) {
  // The Appendix E claim: query + compressed matrix fit in the 64 KiB
  // shared-memory arena for the paper's parameters (d = 96, rho = 8).
  simgpu::Device device;
  Rng rng(303);
  std::vector<double> q = Seasonal(&rng, 96, 32, 0.1);
  std::vector<double> c = Seasonal(&rng, 96, 32, 0.1);
  const double expected = BandedDtw(q.data(), c.data(), 96, 8);
  double got = -1.0;
  auto st = device.Launch(1, 16, [&](simgpu::BlockContext& ctx) {
    double* shq = ctx.shared->Alloc<double>(96);
    ASSERT_NE(shq, nullptr);
    for (int i = 0; i < 96; ++i) shq[i] = q[i];
    double* scratch =
        ctx.shared->Alloc<double>(CompressedDtwScratchSize(8));
    ASSERT_NE(scratch, nullptr);
    got = CompressedDtw(shq, c.data(), 96, 8, scratch);
  });
  ASSERT_TRUE(st.ok());
  EXPECT_DOUBLE_EQ(got, expected);
}

class SeasonalLowerBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(SeasonalLowerBoundTest, BoundsHoldOnStructuredData) {
  const int period = GetParam();
  Rng rng(304 + period);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q = Seasonal(&rng, 96, period, 0.1);
    std::vector<double> c = Seasonal(&rng, 96, period, 0.1);
    const Envelope env_q = ComputeEnvelope(q, 8);
    const Envelope env_c = ComputeEnvelope(c, 8);
    const double dtw = BandedDtw(q.data(), c.data(), 96, 8);
    ASSERT_LE(Lben(env_q, env_c, q.data(), c.data(), 96), dtw + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Periods, SeasonalLowerBoundTest,
                         ::testing::Values(8, 16, 32, 96));

TEST(DtwPropertyTest, EarlyAbandonMonotoneInCutoff) {
  // Raising the cutoff can only move the result from inf to the exact
  // distance, never change the finite value.
  Rng rng(305);
  std::vector<double> q = Seasonal(&rng, 64, 16, 0.3);
  std::vector<double> c = Seasonal(&rng, 64, 16, 0.3);
  const double exact = BandedDtw(q.data(), c.data(), 64, 8);
  double prev = kInf;
  for (double f : {0.2, 0.5, 0.9, 1.1, 2.0}) {
    const double got = EarlyAbandonDtw(q.data(), c.data(), 64, 8, exact * f);
    if (std::isfinite(got)) EXPECT_DOUBLE_EQ(got, exact);
    if (std::isfinite(prev)) EXPECT_TRUE(std::isfinite(got));
    prev = got;
  }
}

TEST(DtwPropertyTest, CompressedEarlyAbandonExactnessContract) {
  // The cutoff-taking CompressedDtw variant used by the verify kernel
  // promises: whenever the true distance is <= cutoff it returns a value
  // bitwise-identical to the non-abandoning kernel, and whenever it
  // abandons it returns +inf and the true distance provably exceeds the
  // cutoff. Sweep random series, band widths and cutoffs on both sides of
  // the exact distance.
  Rng rng(306);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 8 + static_cast<int>(rng.UniformInt(90));
    const int rho = static_cast<int>(rng.UniformInt(12));
    std::vector<double> q(n);
    std::vector<double> c(n);
    for (int i = 0; i < n; ++i) {
      q[i] = rng.Normal();
      c[i] = std::sin(2 * M_PI * i / 16.0) + 0.5 * rng.Normal();
    }
    std::vector<double> scratch(CompressedDtwScratchSize(rho));
    const double exact = CompressedDtw(q.data(), c.data(), n, rho);
    for (double f : {0.0, 0.3, 0.7, 0.999, 1.0, 1.001, 1.5, 3.0}) {
      const double cutoff = exact * f;
      const double got = CompressedDtwEarlyAbandon(q.data(), c.data(), n,
                                                   rho, cutoff,
                                                   scratch.data());
      if (exact <= cutoff) {
        // Must complete and agree bit-for-bit with the full kernel.
        ASSERT_EQ(got, exact) << "n=" << n << " rho=" << rho << " f=" << f;
      } else {
        // Either it completed (same value) or abandoned (+inf); in both
        // cases the returned value is >= the true distance > cutoff.
        ASSERT_TRUE(got == exact || got == kInf)
            << "n=" << n << " rho=" << rho << " f=" << f << " got=" << got;
        ASSERT_GT(got, cutoff);
      }
    }
  }
}

TEST(DtwPropertyTest, BatchedEarlyAbandonKeepsExactnessContractPerLane) {
  // The 4-lane batched verify kernel inherits the scalar exactness
  // contract lane by lane: each lane's result is bitwise the scalar
  // CompressedDtwEarlyAbandon value for its own candidate and cutoff,
  // even when neighboring lanes abandon at different columns.
  Rng rng(307);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 8 + static_cast<int>(rng.UniformInt(90));
    const int rho = static_cast<int>(rng.UniformInt(12));
    std::vector<double> q(n);
    for (int i = 0; i < n; ++i) q[i] = rng.Normal();
    std::vector<std::vector<double>> cands(kDtwBatchLanes,
                                           std::vector<double>(n));
    const double* lanes[kDtwBatchLanes];
    for (int l = 0; l < kDtwBatchLanes; ++l) {
      for (int i = 0; i < n; ++i) {
        cands[l][i] = std::sin(2 * M_PI * i / 16.0) + 0.5 * rng.Normal();
      }
      lanes[l] = cands[l].data();
    }
    std::vector<double> scratch(CompressedDtwScratchSize(rho));
    std::vector<double> batch_scratch(CompressedDtwBatchScratchSize(rho));
    double exact[kDtwBatchLanes];
    for (int l = 0; l < kDtwBatchLanes; ++l) {
      exact[l] = CompressedDtw(q.data(), lanes[l], n, rho, scratch.data());
    }
    // Sweep cutoffs spanning all lanes' exact distances so every mix of
    // {completed, abandoned} lanes occurs across trials.
    for (int pivot = 0; pivot < kDtwBatchLanes; ++pivot) {
      for (double f : {0.0, 0.7, 1.0, 1.5}) {
        const double cutoff = exact[pivot] * f;
        double out[kDtwBatchLanes];
        CompressedDtwEarlyAbandonBatch(q.data(), lanes, n, rho, cutoff, out,
                                       batch_scratch.data());
        for (int l = 0; l < kDtwBatchLanes; ++l) {
          EXPECT_EQ(out[l], CompressedDtwEarlyAbandon(q.data(), lanes[l], n,
                                                      rho, cutoff,
                                                      scratch.data()))
              << "lane=" << l << " pivot=" << pivot << " f=" << f;
          if (exact[l] <= cutoff) {
            ASSERT_EQ(out[l], exact[l])
                << "lane=" << l << " pivot=" << pivot << " f=" << f;
          } else {
            ASSERT_TRUE(out[l] == exact[l] || out[l] == kInf)
                << "lane=" << l << " got=" << out[l];
            ASSERT_GT(out[l], cutoff);
          }
        }
      }
    }
  }
}

TEST(DtwPropertyTest, ConstantSeriesDistanceIsScaledOffset) {
  // Two constant series: every alignment costs the same; DTW = d * diff^2.
  std::vector<double> a(40, 1.0);
  std::vector<double> b(40, 3.5);
  const double expected = 40 * SquaredDist(1.0, 3.5);
  EXPECT_DOUBLE_EQ(BandedDtw(a.data(), b.data(), 40, 8), expected);
  EXPECT_DOUBLE_EQ(CompressedDtw(a.data(), b.data(), 40, 8), expected);
}

}  // namespace
}  // namespace dtw
}  // namespace smiler
