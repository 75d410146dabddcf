#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/manager.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "simgpu/device.h"
#include "store/tiered_store.h"
#include "ts/datasets.h"

namespace smiler {
namespace obs {
namespace {

/// Tracing, the exemplar reservoir, and the dropped-span counter are
/// process globals; every test starts from a clean slate and leaves the
/// tracer configured back at its defaults.
class RequestTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().SetBufferCapacity(Tracer::kDefaultBufferCapacity);
    Tracer::Global().Clear();
    Tracer::Global().Stop();
    ExemplarReservoir::Global().Clear();
    Registry::Global().GetCounter("obs.trace.dropped_spans").Reset();
  }
  void TearDown() override {
    Tracer::Global().Stop();
    Tracer::Global().SetBufferCapacity(Tracer::kDefaultBufferCapacity);
    Tracer::Global().Clear();
    ExemplarReservoir::Global().Clear();
  }
};

TEST_F(RequestTraceTest, StageTaxonomyIsStable) {
  ASSERT_EQ(kNumStages, 9);
  const char* expected[] = {"queue_wait", "batch_form", "rehydrate",
                            "lb_filter",  "dtw_verify", "gram",
                            "cholesky",   "forecast",   "publish"};
  std::set<std::string> names;
  for (int s = 0; s < kNumStages; ++s) {
    EXPECT_STREQ(StageName(static_cast<Stage>(s)), expected[s]);
    EXPECT_EQ(std::string(StageSpanName(static_cast<Stage>(s))),
              std::string("stage.") + expected[s]);
    names.insert(StageName(static_cast<Stage>(s)));
  }
  EXPECT_EQ(names.size(), 9u);  // no duplicates
}

TEST_F(RequestTraceTest, OwnerClockTilesNestedStagesExclusively) {
  auto ctx = RequestContext::Mint(/*shard=*/3);
  EXPECT_EQ(ctx->shard(), 3);
  EXPECT_NE(ctx->trace_id(), 0u);

  // forecast [0, 100) with gram [10, 30) and cholesky [30, 70) nested:
  // the enclosing stage is paused while a nested stage runs, so the
  // owner totals tile the wall interval without double counting.
  ctx->PushStage(Stage::kForecast, 0);
  ctx->PushStage(Stage::kGram, 10);
  ctx->PopStage(30);
  ctx->PushStage(Stage::kCholesky, 30);
  ctx->PopStage(70);
  ctx->PopStage(100);

  EXPECT_EQ(ctx->owner_micros(Stage::kGram), 20);
  EXPECT_EQ(ctx->owner_micros(Stage::kCholesky), 40);
  EXPECT_EQ(ctx->owner_micros(Stage::kForecast), 40);  // 10 + 30, not 100
  EXPECT_EQ(ctx->TotalOwnerMicros(), 100);

  // Cross-thread credits land directly; negative credits clamp.
  ctx->Credit(Stage::kQueueWait, 55);
  ctx->Credit(Stage::kBatchForm, -17);
  EXPECT_EQ(ctx->owner_micros(Stage::kQueueWait), 55);
  EXPECT_EQ(ctx->owner_micros(Stage::kBatchForm), 0);
  EXPECT_EQ(ctx->TotalOwnerMicros(), 155);

  // Parallel accumulation is separate from the owner clock.
  ctx->AddParallel(Stage::kDtwVerify, 1000);
  EXPECT_EQ(ctx->parallel_micros(Stage::kDtwVerify), 1000);
  EXPECT_EQ(ctx->owner_micros(Stage::kDtwVerify), 0);
  EXPECT_EQ(ctx->TotalOwnerMicros(), 155);
}

TEST_F(RequestTraceTest, RequestScopeBindsContextTraceIdAndOwnership) {
  EXPECT_EQ(CurrentRequestContext(), nullptr);
  EXPECT_FALSE(IsRequestOwnerThread());
  EXPECT_EQ(Tracer::CurrentTraceId(), 0u);

  auto outer = RequestContext::Mint();
  {
    RequestScope scope(outer, /*owner=*/true);
    EXPECT_EQ(CurrentRequestContext(), outer.get());
    EXPECT_TRUE(IsRequestOwnerThread());
    EXPECT_EQ(Tracer::CurrentTraceId(), outer->trace_id());

    auto inner = RequestContext::Mint();
    EXPECT_NE(inner->trace_id(), outer->trace_id());
    {
      RequestScope nested(inner, /*owner=*/false);
      EXPECT_EQ(CurrentRequestContext(), inner.get());
      EXPECT_FALSE(IsRequestOwnerThread());
      EXPECT_EQ(Tracer::CurrentTraceId(), inner->trace_id());
    }
    // Nesting restores the enclosing binding, not a blank one.
    EXPECT_EQ(CurrentRequestContext(), outer.get());
    EXPECT_TRUE(IsRequestOwnerThread());
    EXPECT_EQ(Tracer::CurrentTraceId(), outer->trace_id());
  }
  EXPECT_EQ(CurrentRequestContext(), nullptr);
  EXPECT_EQ(Tracer::CurrentTraceId(), 0u);

  // A null context is an explicit no-op scope (snapshot barriers).
  {
    RequestScope noop(nullptr, /*owner=*/true);
    EXPECT_EQ(CurrentRequestContext(), nullptr);
    EXPECT_FALSE(IsRequestOwnerThread());
  }
}

TEST_F(RequestTraceTest, StageScopeIsSafeWithoutContextOrTracing) {
  // No bound context, tracing off: must not crash or record anything.
  { StageScope s(Stage::kGram); }
  // Non-owner binding: elapsed time lands in the parallel counters only.
  auto ctx = RequestContext::Mint();
  {
    RequestScope scope(ctx, /*owner=*/false);
    StageScope s(Stage::kDtwVerify);
  }
  EXPECT_EQ(ctx->owner_micros(Stage::kDtwVerify), 0);
  EXPECT_GE(ctx->parallel_micros(Stage::kDtwVerify), 0);
}

TEST_F(RequestTraceTest, ThreadPoolPropagatesContextAcrossSubmit) {
  auto ctx = RequestContext::Mint();
  Tracer::Global().Start();
  std::uint64_t seen_trace = 0;
  bool seen_owner = true;
  std::promise<void> done;
  {
    RequestScope scope(ctx, /*owner=*/true);
    ThreadPool::Default().Submit([&] {
      seen_trace = Tracer::CurrentTraceId();
      seen_owner = IsRequestOwnerThread();
      done.set_value();
    });
    done.get_future().wait();
  }
  EXPECT_EQ(seen_trace, ctx->trace_id());
  EXPECT_FALSE(seen_owner);  // helpers never own the stage clock
}

TEST_F(RequestTraceTest, RingBufferBoundsSpansAndCountsDrops) {
  Counter& dropped =
      Registry::Global().GetCounter("obs.trace.dropped_spans");
  Tracer::Global().SetBufferCapacity(16);
  Tracer::Global().Clear();  // re-applies the capacity to live buffers
  Tracer::Global().Start();

  // A fresh thread gets a fresh ring; overflow it 4x.
  std::thread recorder([] {
    Tracer::Global().RegisterCurrentThread("ring-test-thread");
    for (int i = 0; i < 64; ++i) {
      SMILER_TRACE_SPAN("ring.test");
    }
  });
  recorder.join();

  int ring_spans = 0;
  std::int64_t newest_start = -1;
  for (const SpanEvent& e : Tracer::Global().Collect()) {
    if (std::string(e.name) == "ring.test") {
      ++ring_spans;
      // Oldest-first within the thread: unwound ring order.
      EXPECT_GE(e.start_us, newest_start);
      newest_start = e.start_us;
    }
  }
  EXPECT_EQ(ring_spans, 16);        // bounded at the configured capacity
  EXPECT_EQ(dropped.value(), 48u);  // evictions are observable
  EXPECT_NE(Tracer::Global().ToChromeTraceJson().find("ring-test-thread"),
            std::string::npos);
}

TEST_F(RequestTraceTest, RegisteredThreadAppearsInExportWithoutSpans) {
  Tracer::Global().Start();
  std::thread idle(
      [] { Tracer::Global().RegisterCurrentThread("idle-but-visible"); });
  idle.join();
  // Satellite guarantee: a worker spawned after tracing startup is
  // present in the export even if it never records a single span.
  EXPECT_NE(Tracer::Global().ToChromeTraceJson().find("idle-but-visible"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// The whole stack: serve -> engine -> thread pool under one trace id.

SmilerConfig SmallConfig() {
  SmilerConfig cfg;
  cfg.rho = 4;
  cfg.omega = 8;
  cfg.elv = {16, 24};
  cfg.ekv = {4, 8};
  return cfg;
}

TEST_F(RequestTraceTest, ServeRequestFormsOneCrossThreadSpanTree) {
  Tracer::Global().Start();

  const int kSensors = 3;
  const int kWarmup = 96;
  const int kSteps = 8;
  auto data = ts::MakeDataset(
      {ts::DatasetKind::kMall, kSensors, kWarmup + kSteps, 64, 5, true});
  ASSERT_TRUE(data.ok());
  std::vector<ts::TimeSeries> histories;
  for (const auto& s : *data) {
    histories.emplace_back(
        s.sensor_id(),
        std::vector<double>(s.values().begin(),
                            s.values().begin() + kWarmup));
  }
  simgpu::Device device;
  auto manager = core::MultiSensorManager::Create(
      &device, histories, SmallConfig(), core::PredictorKind::kAr);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  serve::ServerOptions options;
  options.num_shards = 2;
  auto server =
      serve::PredictionServer::Create(std::move(*manager), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Counter& completed =
      Registry::Global().GetCounter("obs.request.completed");
  const std::uint64_t completed_before = completed.value();

  std::uint64_t requests = 0;
  for (int step = 0; step < kSteps; ++step) {
    for (int s = 0; s < kSensors; ++s) {
      ASSERT_TRUE((*server)->Predict(s).ok());
      ASSERT_TRUE(
          (*server)->Observe(s, (*data)[s].values()[kWarmup + step]).ok());
      requests += 2;
    }
  }
  (*server)->Shutdown();

  // Every finished request published its attribution exactly once.
  EXPECT_EQ(completed.value() - completed_before, requests);

  // Group spans by trace id: every request must form one causally-linked
  // tree, and at least the enqueue (caller thread) + processing (shard
  // worker) spans put two distinct tids under the same trace id.
  std::map<std::uint64_t, std::set<std::uint32_t>> tids_by_trace;
  std::map<std::uint64_t, std::set<std::string>> names_by_trace;
  for (const SpanEvent& e : Tracer::Global().Collect()) {
    if (e.trace_id == 0) continue;
    tids_by_trace[e.trace_id].insert(e.tid);
    names_by_trace[e.trace_id].insert(e.name);
  }
  ASSERT_FALSE(tids_by_trace.empty());
  int cross_thread_traces = 0;
  for (const auto& [trace_id, tids] : tids_by_trace) {
    if (tids.size() >= 2) ++cross_thread_traces;
  }
  EXPECT_GT(cross_thread_traces, 0);
  // The slowest retained request crosses caller -> shard worker and its
  // tree carries both the admission span and a stage span.
  const auto exemplars = ExemplarReservoir::Global().Snapshot();
  ASSERT_FALSE(exemplars.empty());
  const auto& slowest = exemplars.front();
  ASSERT_TRUE(tids_by_trace.count(slowest.trace_id));
  EXPECT_GE(tids_by_trace[slowest.trace_id].size(), 2u);
  EXPECT_TRUE(names_by_trace[slowest.trace_id].count("serve.enqueue"));

  // Trace ids are unique per request and per-stage owner time sums to
  // end-to-end latency up to scope-boundary slack (one steady clock on
  // both sides, so the tolerance is slack, not skew: 35% relative or
  // 500us absolute, whichever is larger, and never over e2e by more
  // than 2% + 2ms).
  std::set<std::uint64_t> exemplar_ids;
  for (const auto& ex : exemplars) {
    EXPECT_TRUE(exemplar_ids.insert(ex.trace_id).second);
    std::int64_t owner_sum_us = 0;
    for (int s = 0; s < kNumStages; ++s) owner_sum_us += ex.stage_micros[s];
    const double owner_sum = static_cast<double>(owner_sum_us) * 1e-6;
    EXPECT_LE(owner_sum, ex.e2e_seconds * 1.02 + 0.002)
        << "owner clock exceeded e2e for trace " << ex.trace_id;
    const double gap = ex.e2e_seconds - owner_sum;
    EXPECT_LE(gap, std::max(0.35 * ex.e2e_seconds, 500e-6))
        << "attribution gap too large for trace " << ex.trace_id;
  }

  // The attribution surfaces list every stage of the taxonomy.
  const std::string table = AttributionTableText();
  for (int s = 0; s < kNumStages; ++s) {
    EXPECT_NE(table.find(StageName(static_cast<Stage>(s))),
              std::string::npos)
        << StageName(static_cast<Stage>(s));
  }
  // Per-shard gauges exist for the shard that served the slowest request.
  ASSERT_GE(slowest.shard, 0);
  const std::string gauge_name = "serve.shard" +
                                 std::to_string(slowest.shard) +
                                 ".stage.forecast_seconds_total";
  EXPECT_GT(Registry::Global().GetGauge(gauge_name).value(), 0.0);

  // The filtered exemplar export keeps only the retained trees. The
  // needle includes the closing brace (the tracer always emits
  // "trace":<id>} ) so that e.g. trace 1 never false-matches the prefix
  // of a retained trace 15.
  std::unordered_set<std::uint64_t> keep = {slowest.trace_id};
  const std::string filtered =
      Tracer::Global().ToChromeTraceJsonFiltered(keep);
  EXPECT_NE(
      filtered.find("\"trace\":" + std::to_string(slowest.trace_id) + "}"),
      std::string::npos);
  for (const auto& ex : exemplars) {
    if (ex.trace_id == slowest.trace_id) continue;
    EXPECT_EQ(
        filtered.find("\"trace\":" + std::to_string(ex.trace_id) + "}"),
        std::string::npos);
  }
}

// Store rehydration is a stage of its own (`rehydrate`), NOT a slice of
// batch_form: with a 1-byte-budget tiered store attached
// (every request re-pins through the cold tier) the rehydrate stage must
// actually accrue owner time, and the per-stage owner sums must still
// tile end-to-end latency with the same slack bound as the storeless
// path — attributing the pin outside the stage clock would reopen the
// unattributed-gap hole this taxonomy exists to close.
TEST_F(RequestTraceTest, TieredStoreRehydrateIsAttributedAndStillTiles) {
  Tracer::Global().Start();

  const int kSensors = 3;
  const int kWarmup = 96;
  const int kSteps = 8;
  auto data = ts::MakeDataset(
      {ts::DatasetKind::kMall, kSensors, kWarmup + kSteps, 64, 5, true});
  ASSERT_TRUE(data.ok());
  std::vector<ts::TimeSeries> histories;
  for (const auto& s : *data) {
    histories.emplace_back(
        s.sensor_id(),
        std::vector<double>(s.values().begin(),
                            s.values().begin() + kWarmup));
  }
  simgpu::Device device;
  auto manager = core::MultiSensorManager::Create(
      &device, histories, SmallConfig(), core::PredictorKind::kAr);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  std::unique_ptr<store::TieredStateStore> store;  // outlives the server
  serve::ServerOptions options;
  options.num_shards = 1;
  auto server =
      serve::PredictionServer::Create(std::move(*manager), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  store::StoreOptions store_options;
  store_options.dir = testing::TempDir() + "/request_trace_rehydrate";
  (void)std::system(("rm -rf '" + store_options.dir + "'").c_str());
  store_options.budget_bytes = 1;  // everything spills at every batch end
  auto store_or = store::TieredStateStore::Create(store_options);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  store = std::move(*store_or);
  ASSERT_TRUE((*server)->AttachStore(store.get()).ok());

  Gauge& rehydrate_total = Registry::Global().GetGauge(
      "serve.shard0.stage.rehydrate_seconds_total");
  const double rehydrate_before = rehydrate_total.value();

  for (int step = 0; step < kSteps; ++step) {
    for (int s = 0; s < kSensors; ++s) {
      ASSERT_TRUE((*server)->Predict(s).ok());
      ASSERT_TRUE(
          (*server)->Observe(s, (*data)[s].values()[kWarmup + step]).ok());
    }
  }
  (*server)->Shutdown();

  // The rehydrate stage accrued real owner time on the serving shard.
  EXPECT_GT(rehydrate_total.value(), rehydrate_before);

  // Stage sums still tile e2e with the store in the path: same slack
  // tolerances as the storeless span-tree test.
  const auto exemplars = ExemplarReservoir::Global().Snapshot();
  ASSERT_FALSE(exemplars.empty());
  std::int64_t rehydrate_exemplar_us = 0;
  for (const auto& ex : exemplars) {
    std::int64_t owner_sum_us = 0;
    for (int s = 0; s < kNumStages; ++s) owner_sum_us += ex.stage_micros[s];
    rehydrate_exemplar_us +=
        ex.stage_micros[static_cast<int>(Stage::kRehydrate)];
    const double owner_sum = static_cast<double>(owner_sum_us) * 1e-6;
    EXPECT_LE(owner_sum, ex.e2e_seconds * 1.02 + 0.002)
        << "owner clock exceeded e2e for trace " << ex.trace_id;
    const double gap = ex.e2e_seconds - owner_sum;
    EXPECT_LE(gap, std::max(0.35 * ex.e2e_seconds, 500e-6))
        << "attribution gap too large for trace " << ex.trace_id;
  }
  // At least one retained request spent visible time rehydrating (with a
  // 1-byte budget every single request re-pins through the cold tier).
  EXPECT_GT(rehydrate_exemplar_us, 0);

  // And the human-facing table reports the stage alongside the others.
  EXPECT_NE(AttributionTableText().find("rehydrate"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Live snapshot endpoint.

TEST_F(RequestTraceTest, StatsServerServesMetricsHealthAndAttribution) {
  HealthRegistry::Global().Reset();
  StatsServer& server = StatsServer::Global();
  const bool started_here = !server.running();
  int port = server.port();
  if (started_here) {
    port = server.Start(0);  // ephemeral
    ASSERT_GT(port, 0);
  }

  Registry::Global().GetCounter("serve.completed").Increment(0);
  const std::string metrics = StatsServer::Get(port, "/metrics");
  EXPECT_NE(metrics.find("200"), std::string::npos);
  EXPECT_NE(metrics.find("smiler_serve_completed"), std::string::npos);

  EXPECT_NE(StatsServer::Get(port, "/healthz").find("200 "),
            std::string::npos);
  HealthRegistry::Global().Set("serve.sensor0", false, "quarantined");
  const std::string degraded = StatsServer::Get(port, "/healthz");
  EXPECT_NE(degraded.find("503"), std::string::npos);
  EXPECT_NE(degraded.find("serve.sensor0"), std::string::npos);
  HealthRegistry::Global().Clear("serve.sensor0");
  EXPECT_NE(StatsServer::Get(port, "/healthz").find("200 "),
            std::string::npos);

  const std::string attribution = StatsServer::Get(port, "/attribution");
  EXPECT_NE(attribution.find("queue_wait"), std::string::npos);
  EXPECT_NE(attribution.find("cholesky"), std::string::npos);

  EXPECT_NE(StatsServer::Get(port, "/nope").find("404"),
            std::string::npos);

  if (started_here) server.Stop();
  HealthRegistry::Global().Reset();
}

}  // namespace
}  // namespace obs
}  // namespace smiler
