// Backend-selection and cross-backend equivalence suite. Two halves:
//
//  1. Selection semantics: SMILER_BACKEND parsing, the simgpu default,
//     and the no-silent-fallback contract — an unknown value must fail
//     every Launch with kInvalidArgument instead of quietly running the
//     grid emulation.
//
//  2. Bitwise equivalence: every kernel migrated to the native backend
//     (window build, envelope append maintenance, group/direct lower
//     bounds, early-abandoned DTW verify, SE-kernel Gram) must produce
//     results bit-for-bit identical to the simulated grid — the same
//     standard index_equivalence_test holds the filter-and-verify cascade
//     to. Any lane reordering, fused contraction, or stale-threshold
//     arithmetic drift fails here.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "dtw/dtw.h"
#include "gp/kernel.h"
#include "index/kselect.h"
#include "index/smiler_index.h"
#include "la/matrix.h"
#include "obs/metrics.h"
#include "simgpu/backend.h"
#include "simgpu/device.h"
#include "ts/series.h"

namespace smiler {
namespace {

using simgpu::BackendKind;

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

TEST(BackendSelectionTest, ParseAcceptsCanonicalNames) {
  auto sim = simgpu::ParseBackendKind("simgpu");
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ(*sim, BackendKind::kSimGrid);
  auto native = simgpu::ParseBackendKind("native");
  ASSERT_TRUE(native.ok());
  EXPECT_EQ(*native, BackendKind::kNative);
  EXPECT_STREQ(simgpu::BackendKindName(BackendKind::kSimGrid), "simgpu");
  EXPECT_STREQ(simgpu::BackendKindName(BackendKind::kNative), "native");
}

TEST(BackendSelectionTest, ParseRejectsUnknownValues) {
  for (const char* bad : {"cuda", "SIMGPU", "Native", "gpu", " native"}) {
    auto r = simgpu::ParseBackendKind(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
    // The message must name the knob so the failure is actionable from a
    // service log alone.
    EXPECT_NE(r.status().message().find("SMILER_BACKEND"), std::string::npos);
  }
}

TEST(BackendSelectionTest, EnvUnsetAndEmptyDefaultToSimGrid) {
  {
    ScopedEnv env("SMILER_BACKEND", nullptr);
    auto kind = simgpu::BackendKindFromEnv();
    ASSERT_TRUE(kind.ok());
    EXPECT_EQ(*kind, BackendKind::kSimGrid);
  }
  {
    ScopedEnv env("SMILER_BACKEND", "");
    auto kind = simgpu::BackendKindFromEnv();
    ASSERT_TRUE(kind.ok());
    EXPECT_EQ(*kind, BackendKind::kSimGrid);
  }
}

TEST(BackendSelectionTest, EnvSelectsNative) {
  ScopedEnv env("SMILER_BACKEND", "native");
  auto kind = simgpu::BackendKindFromEnv();
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, BackendKind::kNative);
  simgpu::Device device;
  auto bound = device.backend();
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(*bound, BackendKind::kNative);
}

TEST(BackendSelectionTest, InvalidEnvFailsEveryLaunchWithoutFallback) {
  ScopedEnv env("SMILER_BACKEND", "tpu");
  simgpu::Device device;
  auto bound = device.backend();
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument);
  // The kernel must never run: a silent fallback would execute it.
  bool ran = false;
  Status st = device.Launch("test.noop", 1, 1,
                            [&](simgpu::BlockContext&) { ran = true; });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ran);
  EXPECT_EQ(device.stats().kernels_launched.load(), 0u);
}

TEST(BackendSelectionTest, ExplicitKindIgnoresEnvAndRebindWorks) {
  ScopedEnv env("SMILER_BACKEND", "garbage");
  simgpu::Device device(6ULL << 30, 64ULL << 10, nullptr,
                        BackendKind::kNative);
  auto bound = device.backend();
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(*bound, BackendKind::kNative);
  bool ran = false;
  ASSERT_TRUE(device
                  .Launch("test.noop", 1, 1,
                          [&](simgpu::BlockContext&) { ran = true; })
                  .ok());
  EXPECT_TRUE(ran);
  device.set_backend(BackendKind::kSimGrid);
  auto rebound = device.backend();
  ASSERT_TRUE(rebound.ok());
  EXPECT_EQ(*rebound, BackendKind::kSimGrid);
}

TEST(BackendSelectionTest, ProfilingMetricNamesSurviveBackendSwitch) {
  // Per-kernel profiling must degrade gracefully under the native
  // backend: the same `simgpu.kernel.<name>.*` instruments keep updating
  // (one whole-launch observation instead of one per emulated block), so
  // dashboards keyed on those names work whichever backend runs.
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter& launches =
      reg.GetCounter("simgpu.kernel.test.profiled.launches");
  obs::Histogram& block_seconds =
      reg.GetHistogram("simgpu.kernel.test.profiled.block_seconds");
  for (BackendKind kind : {BackendKind::kSimGrid, BackendKind::kNative}) {
    const std::uint64_t launches_before = launches.value();
    const std::uint64_t observations_before = block_seconds.Snap().count;
    simgpu::Device device(6ULL << 30, 64ULL << 10, nullptr, kind);
    ASSERT_TRUE(device
                    .Launch(
                        "test.profiled", 3, 2,
                        [](simgpu::BlockContext&) {},
                        [](simgpu::NativeContext&) {})
                    .ok());
    EXPECT_EQ(launches.value(), launches_before + 1)
        << simgpu::BackendKindName(kind);
    EXPECT_GT(block_seconds.Snap().count, observations_before)
        << simgpu::BackendKindName(kind);
  }
}

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

simgpu::Device MakeDevice(BackendKind kind) {
  return simgpu::Device(6ULL << 30, 64ULL << 10, nullptr, kind);
}

void ExpectSnapshotsBitwiseEqual(const index::IndexSnapshot& a,
                                 const index::IndexSnapshot& b) {
  EXPECT_EQ(a.series, b.series);
  EXPECT_EQ(a.env_c_upper, b.env_c_upper);
  EXPECT_EQ(a.env_c_lower, b.env_c_lower);
  EXPECT_EQ(a.env_mq_upper, b.env_mq_upper);
  EXPECT_EQ(a.env_mq_lower, b.env_mq_lower);
  EXPECT_EQ(a.head, b.head);
  EXPECT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.arena_stride, b.arena_stride);
  // The posting-list arena is the full window level: build and append
  // maintenance must agree to the bit.
  ASSERT_EQ(a.arena.size(), b.arena.size());
  EXPECT_EQ(a.arena, b.arena);
}

void ExpectTablesBitwiseEqual(const index::LowerBoundTable& a,
                              const index::LowerBoundTable& b) {
  ASSERT_EQ(a.lb_eq.size(), b.lb_eq.size());
  ASSERT_EQ(a.lb_ec.size(), b.lb_ec.size());
  for (std::size_t i = 0; i < a.lb_eq.size(); ++i) {
    EXPECT_EQ(a.lb_eq[i], b.lb_eq[i]) << "lb_eq item " << i;
    EXPECT_EQ(a.lb_ec[i], b.lb_ec[i]) << "lb_ec item " << i;
  }
}

TEST(BackendEquivalenceTest, BuildAndAppendMaintainIdenticalWindowLevel) {
  // index.window_build + index.append_columns + index.append_rows: the
  // posting lists (and both envelopes) after Build and after a stream of
  // appends must be bitwise-identical across backends.
  simgpu::Device sim = MakeDevice(BackendKind::kSimGrid);
  simgpu::Device native = MakeDevice(BackendKind::kNative);
  SmilerConfig cfg = SmallConfig();
  Rng rng(710);
  std::vector<double> data = RandomWalk(&rng, 400);
  auto a = index::SmilerIndex::Build(&sim, ts::TimeSeries("t", data), cfg);
  auto b = index::SmilerIndex::Build(&native, ts::TimeSeries("t", data), cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSnapshotsBitwiseEqual(a->Snapshot(), b->Snapshot());
  for (int step = 0; step < 40; ++step) {
    const double v = rng.Normal();
    ASSERT_TRUE(a->Append(v).ok());
    ASSERT_TRUE(b->Append(v).ok());
  }
  ExpectSnapshotsBitwiseEqual(a->Snapshot(), b->Snapshot());
}

TEST(BackendEquivalenceTest, LowerBoundKernelsMatchBitwise) {
  // index.group_lower_bound and index.direct_lower_bound.
  simgpu::Device sim = MakeDevice(BackendKind::kSimGrid);
  simgpu::Device native = MakeDevice(BackendKind::kNative);
  SmilerConfig cfg = SmallConfig();
  Rng rng(711);
  std::vector<double> data = RandomWalk(&rng, 380);
  auto a = index::SmilerIndex::Build(&sim, ts::TimeSeries("t", data), cfg);
  auto b = index::SmilerIndex::Build(&native, ts::TimeSeries("t", data), cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int h : {1, 16}) {
    auto ga = a->GroupLowerBounds(h);
    auto gb = b->GroupLowerBounds(h);
    ASSERT_TRUE(ga.ok());
    ASSERT_TRUE(gb.ok());
    ExpectTablesBitwiseEqual(*ga, *gb);
    auto da = a->DirectLowerBounds(h);
    auto db = b->DirectLowerBounds(h);
    ASSERT_TRUE(da.ok());
    ASSERT_TRUE(db.ok());
    ExpectTablesBitwiseEqual(*da, *db);
  }
}

TEST(BackendEquivalenceTest, StreamedSearchMatchesAcrossBackends) {
  // index.verify_dtw end-to-end: both backends run the same verify strip
  // body, the grid with its query and scratch in shared memory, native on
  // the heap. Neighbors (timestamps and distances) must agree bit for bit
  // at every step of a continuous search-append stream — including the
  // threshold-reuse seeding that feeds each step from the last.
  simgpu::Device sim = MakeDevice(BackendKind::kSimGrid);
  simgpu::Device native = MakeDevice(BackendKind::kNative);
  SmilerConfig cfg = SmallConfig();
  Rng rng(712);
  std::vector<double> data = RandomWalk(&rng, 420);
  auto a = index::SmilerIndex::Build(&sim, ts::TimeSeries("t", data), cfg);
  auto b = index::SmilerIndex::Build(&native, ts::TimeSeries("t", data), cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  index::SuffixSearchOptions opts;
  opts.k = 8;
  for (int step = 0; step < 30; ++step) {
    auto ra = a->Search(opts);
    auto rb = b->Search(opts);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    ASSERT_EQ(ra->items.size(), rb->items.size());
    for (std::size_t i = 0; i < ra->items.size(); ++i) {
      const auto& na = ra->items[i].neighbors;
      const auto& nb = rb->items[i].neighbors;
      ASSERT_EQ(na.size(), nb.size()) << "item " << i << " step " << step;
      for (std::size_t j = 0; j < na.size(); ++j) {
        EXPECT_EQ(na[j].t, nb[j].t) << "item " << i << " rank " << j;
        EXPECT_EQ(na[j].dist, nb[j].dist) << "item " << i << " rank " << j;
      }
    }
    const double v = rng.Normal();
    ASSERT_TRUE(a->Append(v).ok());
    ASSERT_TRUE(b->Append(v).ok());
  }
}

TEST(BackendEquivalenceTest, DeviceGramMatchesHostUnderBothBackends) {
  // gp.gram: the device-routed pairwise squared distances must be
  // bitwise-identical to the host function — the Gram-cache contract says
  // a cached Gram is exactly what each consumer would have computed.
  Rng rng(713);
  for (std::size_t k : {1u, 2u, 7u, 33u}) {
    for (std::size_t dim : {1u, 3u, 24u}) {
      la::Matrix x(k, dim);
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t d = 0; d < dim; ++d) x(i, d) = rng.Normal();
      }
      const la::Matrix host = gp::PairwiseSquaredDistances(x);
      for (BackendKind kind : {BackendKind::kSimGrid, BackendKind::kNative}) {
        simgpu::Device device = MakeDevice(kind);
        auto got = gp::PairwiseSquaredDistancesOnDevice(&device, x);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got->rows(), host.rows());
        ASSERT_EQ(got->cols(), host.cols());
        EXPECT_EQ(got->data(), host.data())
            << "backend=" << simgpu::BackendKindName(kind) << " k=" << k
            << " dim=" << dim;
      }
    }
  }
}

TEST(BackendEquivalenceTest, BatchedDtwMatchesScalarLanewise) {
  // The 4-lane batched verify kernel: every lane must return exactly the
  // scalar CompressedDtwEarlyAbandon result for its candidate, for
  // cutoffs on both sides of each lane's exact distance.
  Rng rng(714);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 8 + static_cast<int>(rng.UniformInt(90));
    const int rho = static_cast<int>(rng.UniformInt(12));
    std::vector<double> q(n);
    std::vector<std::vector<double>> cands(dtw::kDtwBatchLanes,
                                           std::vector<double>(n));
    for (int i = 0; i < n; ++i) q[i] = rng.Normal();
    for (auto& c : cands) {
      for (int i = 0; i < n; ++i) c[i] = rng.Normal();
    }
    const double* lane_ptrs[dtw::kDtwBatchLanes];
    for (int l = 0; l < dtw::kDtwBatchLanes; ++l) {
      lane_ptrs[l] = cands[l].data();
    }
    std::vector<double> scalar_scratch(dtw::CompressedDtwScratchSize(rho));
    std::vector<double> batch_scratch(dtw::CompressedDtwBatchScratchSize(rho));
    double exact[dtw::kDtwBatchLanes];
    for (int l = 0; l < dtw::kDtwBatchLanes; ++l) {
      exact[l] = dtw::CompressedDtw(q.data(), lane_ptrs[l], n, rho,
                                    scalar_scratch.data());
    }
    for (double f : {0.0, 0.5, 0.999, 1.0, 1.001, 2.0}) {
      // Cutoff relative to lane 0 so lanes abandon at different columns
      // (or not at all) within one batch.
      const double cutoff = exact[0] * f;
      double out[dtw::kDtwBatchLanes];
      dtw::CompressedDtwEarlyAbandonBatch(q.data(), lane_ptrs, n, rho,
                                          cutoff, out, batch_scratch.data());
      for (int l = 0; l < dtw::kDtwBatchLanes; ++l) {
        const double want = dtw::CompressedDtwEarlyAbandon(
            q.data(), lane_ptrs[l], n, rho, cutoff, scalar_scratch.data());
        EXPECT_EQ(out[l], want)
            << "trial=" << trial << " lane=" << l << " f=" << f;
      }
    }
  }
}

// --- Forced-backend exactness-contract fixture -----------------------------

/// Runs the dtw_property_test CompressedEarlyAbandonExactnessContract sweep
/// through the two kernels a verify strip executes under either backend:
/// the scalar early-abandon kernel (a strip's tail of fewer than four
/// candidates) for the simgpu parameter, the 4-lane batched kernel for the
/// native one (lane 0 carries the candidate; the other lanes hold
/// independent decoys so cross-lane interference would show).
class BackendExactnessContractTest
    : public ::testing::TestWithParam<BackendKind> {
 protected:
  double EvalUnderBackend(const double* q, const double* c, int n, int rho,
                          double cutoff, Rng* rng) {
    if (GetParam() == BackendKind::kSimGrid) {
      std::vector<double> scratch(dtw::CompressedDtwScratchSize(rho));
      return dtw::CompressedDtwEarlyAbandon(q, c, n, rho, cutoff,
                                            scratch.data());
    }
    std::vector<std::vector<double>> decoys(dtw::kDtwBatchLanes - 1,
                                            std::vector<double>(n));
    for (auto& d : decoys) {
      for (int i = 0; i < n; ++i) d[i] = rng->Normal();
    }
    const double* lanes[dtw::kDtwBatchLanes];
    lanes[0] = c;
    for (int l = 1; l < dtw::kDtwBatchLanes; ++l) {
      lanes[l] = decoys[l - 1].data();
    }
    std::vector<double> scratch(dtw::CompressedDtwBatchScratchSize(rho));
    double out[dtw::kDtwBatchLanes];
    dtw::CompressedDtwEarlyAbandonBatch(q, lanes, n, rho, cutoff, out,
                                        scratch.data());
    return out[0];
  }
};

TEST_P(BackendExactnessContractTest, CompressedEarlyAbandonExactnessContract) {
  Rng rng(306);  // the dtw_property_test seed: identical input sweep
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 8 + static_cast<int>(rng.UniformInt(90));
    const int rho = static_cast<int>(rng.UniformInt(12));
    std::vector<double> q(n);
    std::vector<double> c(n);
    for (int i = 0; i < n; ++i) {
      q[i] = rng.Normal();
      c[i] = std::sin(2 * M_PI * i / 16.0) + 0.5 * rng.Normal();
    }
    const double exact = dtw::CompressedDtw(q.data(), c.data(), n, rho);
    for (double f : {0.0, 0.3, 0.7, 0.999, 1.0, 1.001, 1.5, 3.0}) {
      const double cutoff = exact * f;
      const double got =
          EvalUnderBackend(q.data(), c.data(), n, rho, cutoff, &rng);
      if (exact <= cutoff) {
        ASSERT_EQ(got, exact) << "n=" << n << " rho=" << rho << " f=" << f;
      } else {
        ASSERT_TRUE(got == exact || got == kInf)
            << "n=" << n << " rho=" << rho << " f=" << f << " got=" << got;
        ASSERT_GT(got, cutoff);
      }
    }
  }
}

/// End-to-end form of the same contract: a forced-backend index's search
/// results must match a reference scan that pays full DTW everywhere —
/// early abandoning and (under native) lane batching must never alter a
/// surviving neighbor's bits.
TEST_P(BackendExactnessContractTest, SearchMatchesFullDtwReferenceScan) {
  simgpu::Device device = MakeDevice(GetParam());
  SmilerConfig cfg = SmallConfig();
  Rng rng(715);
  ts::TimeSeries s("t", RandomWalk(&rng, 400));
  auto idx = index::SmilerIndex::Build(&device, s, cfg);
  ASSERT_TRUE(idx.ok());
  index::SuffixSearchOptions opts;
  opts.k = 8;
  for (int step = 0; step < 15; ++step) {
    auto result = idx->Search(opts);
    ASSERT_TRUE(result.ok());
    for (std::size_t i = 0; i < cfg.elv.size(); ++i) {
      const int d = cfg.elv[i];
      const long n = static_cast<long>(idx->series().size());
      const long t_count = n - d - opts.reserve_horizon + 1;
      const double* q = idx->series().data() + n - d;
      std::vector<double> scratch(dtw::CompressedDtwScratchSize(cfg.rho));
      std::vector<index::Neighbor> all;
      for (long t = 0; t < t_count; ++t) {
        all.push_back(index::Neighbor{
            t, dtw::CompressedDtw(q, idx->series().data() + t, d, cfg.rho,
                                  scratch.data())});
      }
      const std::vector<index::Neighbor> want =
          index::KSelectSmallest(std::move(all), opts.k);
      const auto& got = result->items[i].neighbors;
      ASSERT_EQ(got.size(), want.size()) << "item " << i;
      for (std::size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(got[j].t, want[j].t) << "item " << i << " rank " << j;
        EXPECT_EQ(got[j].dist, want[j].dist) << "item " << i << " rank " << j;
      }
    }
    ASSERT_TRUE(idx->Append(rng.Normal()).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendExactnessContractTest,
    ::testing::Values(BackendKind::kSimGrid, BackendKind::kNative),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return std::string(simgpu::BackendKindName(info.param));
    });

}  // namespace
}  // namespace smiler
