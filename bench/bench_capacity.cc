// Capacity benchmark for the tiered state store: how many sensors can a
// simulated 6 GiB device host when engine state spills to the cold tier
// (store::TieredStateStore), versus keeping every engine resident?
//
// Three phases over identical data and engine configuration:
//   probe     bind an unlimited store to a fully-resident fleet to
//             measure the exact per-sensor resident footprint
//   baseline  the all-resident fleet behind the sharded PredictionServer
//   tiered    the same fleet under a store budgeted to hold only
//             kBudgetSlots engines resident; every batch pins (and, when
//             cold, rehydrates) its sensors and sweeps the budget at the
//             batch boundary
//
// The demonstrated capacity ratio is conservative: fleet bytes divided
// by the RESIDENT HIGH-WATER actually observed (not the configured
// budget), so transient over-budget residency from pinned batches counts
// against the claim. Emits a JSON report to --out <path> (or stdout):
// the ratio and its 6 GiB extrapolation, the resident-bytes +
// process-RSS curve of both phases, rehydration p50/p99 from
// store.rehydrate_seconds, and the 9-stage latency attribution
// (rehydration cost lands in its own `rehydrate` stage, timed at the
// inline pin). scripts/bench_regression.sh distils this into
// BENCH_capacity.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "store/tiered_store.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Sample {
  const char* phase;
  double t_seconds;
  std::size_t rss_bytes;
  std::size_t store_resident_bytes;
  int resident_sensors;
};

// The paper's capacity argument is about a 6 GiB device (Section 6).
constexpr std::size_t kSixGiB = 6442450944ULL;
// Resident engine slots the tiered phase is budgeted for. The fleet is
// sized well past 10x this so the >=10x claim survives the transient
// pinned-batch residency on top of the budget.
constexpr std::size_t kBudgetSlots = 4;

}  // namespace

int main(int argc, char** argv) {
  using namespace smiler;
  using namespace smiler::bench;
  InitObsFlags(argc, argv);
  std::string out_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  const BenchScale scale = GetScale();
  const bool full = scale.points >= 32768;
  const int n_sensors = full ? 128 : 64;
  const int steps = full ? 32 : 16;
  const int points = 640;
  const int warmup = points - steps;
  const SmilerConfig cfg = PaperConfig();
  auto sensors =
      MakeBenchDataset(ts::DatasetKind::kMall, scale, n_sensors, points);

  PrintHeader("capacity: tiered store vs all-resident, SMiLer-AR");
  std::printf("sensors=%d warmup=%d steps=%d budget_slots=%zu\n", n_sensors,
              warmup, steps, kBudgetSlots);

  const char* tmpdir_env = std::getenv("TMPDIR");
  const std::string scratch =
      std::string(tmpdir_env != nullptr ? tmpdir_env : "/tmp") +
      "/smiler_bench_capacity";
  (void)std::system(("rm -rf '" + scratch + "'").c_str());
  // The store mkdirs only its leaf directory; make the scratch parent.
  (void)std::system(("mkdir -p '" + scratch + "'").c_str());

  ThreadPool device_pool(2);
  simgpu::Device device(6ULL << 30, 64ULL << 10, &device_pool);
  std::vector<ts::TimeSeries> histories;
  for (const auto& s : sensors) {
    histories.emplace_back(
        s.sensor_id(),
        std::vector<double>(s.values().begin(), s.values().begin() + warmup));
  }
  auto make_manager = [&]() {
    return core::MultiSensorManager::Create(&device, histories, cfg,
                                            core::PredictorKind::kAr);
  };

  // ---- probe: exact per-sensor resident footprint ----
  auto probe_manager = make_manager();
  if (!probe_manager.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 probe_manager.status().ToString().c_str());
    return 1;
  }
  std::size_t per_sensor_bytes = 0;
  {
    store::StoreOptions popt;
    popt.dir = scratch + "/probe";
    popt.budget_bytes = std::numeric_limits<std::size_t>::max();
    auto probe = store::TieredStateStore::Create(popt);
    if (!probe.ok()) {
      std::fprintf(stderr, "probe store failed: %s\n",
                   probe.status().ToString().c_str());
      return 1;
    }
    Status bound = (*probe)->Bind(&*probe_manager, &device);
    if (!bound.ok()) {
      std::fprintf(stderr, "probe bind failed: %s\n",
                   bound.ToString().c_str());
      return 1;
    }
    per_sensor_bytes =
        (*probe)->resident_bytes() / static_cast<std::size_t>(n_sensors);
  }
  const std::size_t fleet_bytes =
      per_sensor_bytes * static_cast<std::size_t>(n_sensors);
  std::printf("probe     per-sensor resident footprint %zu bytes "
              "(fleet %zu bytes)\n",
              per_sensor_bytes, fleet_bytes);

  // ---- shared phase driver: closed-loop Predict+Observe per sensor ----
  // One client thread keeps micro-batches (and thus the transient pinned
  // residency above the budget) minimal, which is the regime the
  // capacity claim is measured in.
  std::vector<Sample> samples;
  auto run_phase = [&](serve::PredictionServer* server,
                       store::TieredStateStore* tstore, const char* phase,
                       double* out_seconds) -> bool {
    std::atomic<bool> done{false};
    std::thread sampler([&] {
      const auto t0 = Clock::now();
      while (!done.load(std::memory_order_acquire)) {
        Sample s;
        s.phase = phase;
        s.t_seconds = SecondsSince(t0);
        s.rss_bytes = obs::UpdateProcessRssGauge();
        if (tstore != nullptr) {
          s.store_resident_bytes = tstore->resident_bytes();
          int resident = 0;
          for (const auto& slot : tstore->Inspect()) {
            resident += slot.resident ? 1 : 0;
          }
          s.resident_sensors = resident;
        } else {
          s.store_resident_bytes = fleet_bytes;
          s.resident_sensors = n_sensors;
        }
        samples.push_back(s);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    bool ok = true;
    const auto t0 = Clock::now();
    for (int step = 0; step < steps && ok; ++step) {
      for (int s = 0; s < n_sensors; ++s) {
        if (!server->Predict(static_cast<std::size_t>(s)).ok() ||
            !server
                 ->Observe(static_cast<std::size_t>(s),
                           sensors[s].values()[warmup + step])
                 .ok()) {
          ok = false;
          break;
        }
      }
    }
    *out_seconds = SecondsSince(t0);
    done.store(true, std::memory_order_release);
    sampler.join();
    return ok;
  };

  serve::ServerOptions options;
  options.num_shards = 4;
  options.queue_capacity = 1024;

  // ---- baseline: every engine resident ----
  auto baseline_server =
      serve::PredictionServer::Create(std::move(*probe_manager), options);
  if (!baseline_server.ok()) {
    std::fprintf(stderr, "server create failed: %s\n",
                 baseline_server.status().ToString().c_str());
    return 1;
  }
  obs::Registry::Global().ResetAll();
  double base_seconds = 0.0;
  if (!run_phase(baseline_server->get(), nullptr, "baseline",
                 &base_seconds)) {
    std::fprintf(stderr, "baseline phase failed\n");
    return 1;
  }
  (*baseline_server)->Shutdown();
  const auto base_lat =
      obs::Registry::Global().GetHistogram("serve.latency_seconds").Snap();
  std::printf("baseline  %8.0f req/s  (%.3fs, %d sensors resident)  "
              "p50=%.1fus p99=%.1fus\n",
              static_cast<double>(base_lat.count) / base_seconds,
              base_seconds, n_sensors, base_lat.p50 * 1e6,
              base_lat.p99 * 1e6);

  // ---- tiered: kBudgetSlots resident engines, the rest on disk ----
  auto tiered_manager = make_manager();
  if (!tiered_manager.ok()) return 1;
  store::StoreOptions sopt;
  sopt.dir = scratch + "/segments";
  sopt.budget_bytes = kBudgetSlots * per_sensor_bytes;
  auto tstore = store::TieredStateStore::Create(sopt);
  if (!tstore.ok()) {
    std::fprintf(stderr, "store create failed: %s\n",
                 tstore.status().ToString().c_str());
    return 1;
  }
  auto tiered_server =
      serve::PredictionServer::Create(std::move(*tiered_manager), options);
  if (!tiered_server.ok()) return 1;
  Status attached = (*tiered_server)->AttachStore(tstore->get());
  if (!attached.ok()) {
    std::fprintf(stderr, "attach failed: %s\n", attached.ToString().c_str());
    return 1;
  }
  // Demote down to the budget before traffic so the curve starts at the
  // steady state instead of at full residency (fleets are constructed
  // resident; Bind necessarily sees the full fleet in RAM once).
  if (!(*tstore)->EnforceBudget().ok()) return 1;
  // Isolate the serving phase's metrics: rehydration percentiles, the
  // resident high-water and the stage attribution should describe
  // steady-state serving under the budget, not the construction-time
  // full residency or the initial demotion sweep.
  obs::Registry::Global().ResetAll();
  double tiered_seconds = 0.0;
  if (!run_phase(tiered_server->get(), tstore->get(), "tiered",
                 &tiered_seconds)) {
    std::fprintf(stderr, "tiered phase failed\n");
    return 1;
  }
  (*tiered_server)->Shutdown();

  obs::Registry& reg = obs::Registry::Global();
  const auto tiered_lat = reg.GetHistogram("serve.latency_seconds").Snap();
  const auto rehydrate = reg.GetHistogram("store.rehydrate_seconds").Snap();
  const double evictions = reg.GetCounter("store.evictions").value();
  const double rehydrations = reg.GetCounter("store.rehydrations").value();
  std::size_t high_water = static_cast<std::size_t>(
      reg.GetGauge("store.resident_bytes_high_water").value());
  for (const Sample& s : samples) {
    if (std::strcmp(s.phase, "tiered") == 0) {
      high_water = std::max(high_water, s.store_resident_bytes);
    }
  }
  if (high_water == 0) high_water = sopt.budget_bytes;

  // Capacity math. All-resident hosting needs per_sensor_bytes of RAM per
  // sensor; tiered hosting amortizes the resident high-water over the
  // whole fleet (cold sensors cost disk, not budgeted RAM).
  const double ratio_vs_budget =
      static_cast<double>(fleet_bytes) /
      static_cast<double>(sopt.budget_bytes);
  const double ratio_demonstrated = static_cast<double>(fleet_bytes) /
                                    static_cast<double>(high_water);
  const double hostable_all_resident =
      static_cast<double>(kSixGiB) / static_cast<double>(per_sensor_bytes);
  const double hostable_tiered =
      static_cast<double>(kSixGiB) * static_cast<double>(n_sensors) /
      static_cast<double>(high_water);

  std::printf("tiered    %8.0f req/s  (%.3fs, budget %zu B = %zu slots)  "
              "p50=%.1fus p99=%.1fus\n",
              static_cast<double>(tiered_lat.count) / tiered_seconds,
              tiered_seconds, sopt.budget_bytes, kBudgetSlots,
              tiered_lat.p50 * 1e6, tiered_lat.p99 * 1e6);
  std::printf("          evictions=%.0f rehydrations=%.0f "
              "rehydrate p50=%.1fus p99=%.1fus\n",
              evictions, rehydrations, rehydrate.p50 * 1e6,
              rehydrate.p99 * 1e6);
  std::printf("capacity  %.1fx demonstrated (high-water %zu B; "
              "%.1fx vs configured budget; target >= 10x)\n",
              ratio_demonstrated, high_water, ratio_vs_budget);
  std::printf("          6 GiB hosts %.0f sensors all-resident vs "
              "%.0f tiered\n",
              hostable_all_resident, hostable_tiered);
  std::printf("%s", obs::AttributionTableText().c_str());

  // ---- JSON report ----
  std::string stages = "  \"attribution\": {\n    \"stages_seconds_total\": {";
  for (int s = 0; s < obs::kNumStages; ++s) {
    const auto snap =
        reg.GetHistogram(std::string("obs.request.stage.") +
                         obs::StageName(static_cast<obs::Stage>(s)) +
                         "_seconds")
            .Snap();
    stages += std::string(s == 0 ? "" : ",") + "\n      \"" +
              obs::StageName(static_cast<obs::Stage>(s)) +
              "\": " + std::to_string(snap.sum);
  }
  stages += "\n    },\n    \"unattributed_seconds_total\": " +
            std::to_string(
                reg.GetHistogram("obs.request.unattributed_seconds")
                    .Snap()
                    .sum) +
            "\n  },\n";

  // The sampler runs at ~100 Hz; thin the curve to a readable size.
  std::string curve = "  \"resident_curve\": [";
  const std::size_t stride = std::max<std::size_t>(1, samples.size() / 48);
  bool first = true;
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    const Sample& s = samples[i];
    curve += std::string(first ? "" : ",");
    first = false;
    curve += "\n    {\"phase\": \"" + std::string(s.phase) +
             "\", \"t_seconds\": " + std::to_string(s.t_seconds) +
             ", \"rss_bytes\": " + std::to_string(s.rss_bytes) +
             ", \"store_resident_bytes\": " +
             std::to_string(s.store_resident_bytes) +
             ", \"resident_sensors\": " +
             std::to_string(s.resident_sensors) + "}";
  }
  curve += "\n  ],\n";

  const std::string json =
      std::string("{\n") +
      "  \"workload\": \"bench_capacity tiered store, SMiLer-AR\",\n" +
      "  \"sensors\": " + std::to_string(n_sensors) + ",\n" +
      "  \"steps\": " + std::to_string(steps) + ",\n" +
      "  \"per_sensor_resident_bytes\": " +
      std::to_string(per_sensor_bytes) + ",\n" +
      "  \"fleet_resident_bytes\": " + std::to_string(fleet_bytes) + ",\n" +
      "  \"budget\": {\n" +
      "    \"simulated_device_bytes\": " + std::to_string(kSixGiB) + ",\n" +
      "    \"store_budget_bytes\": " + std::to_string(sopt.budget_bytes) +
      ",\n" +
      "    \"resident_engine_slots\": " + std::to_string(kBudgetSlots) +
      "\n  },\n" +
      "  \"capacity\": {\n" +
      "    \"resident_high_water_bytes\": " + std::to_string(high_water) +
      ",\n" +
      "    \"ratio_demonstrated\": " + std::to_string(ratio_demonstrated) +
      ",\n" +
      "    \"ratio_vs_configured_budget\": " +
      std::to_string(ratio_vs_budget) + ",\n" +
      "    \"hostable_sensors_6gib_all_resident\": " +
      std::to_string(hostable_all_resident) + ",\n" +
      "    \"hostable_sensors_6gib_tiered\": " +
      std::to_string(hostable_tiered) + "\n  },\n" +
      "  \"rehydration\": {\n" +
      "    \"count\": " + std::to_string(rehydrate.count) + ",\n" +
      "    \"p50_seconds\": " + std::to_string(rehydrate.p50) + ",\n" +
      "    \"p99_seconds\": " + std::to_string(rehydrate.p99) + ",\n" +
      "    \"evictions\": " + std::to_string(evictions) + ",\n" +
      "    \"rehydrations\": " + std::to_string(rehydrations) + "\n  },\n" +
      stages + curve +
      "  \"tiered_serve\": {\n" +
      "    \"requests\": " + std::to_string(tiered_lat.count) + ",\n" +
      "    \"throughput_req_per_s\": " +
      std::to_string(static_cast<double>(tiered_lat.count) /
                     tiered_seconds) +
      ",\n" +
      "    \"latency_p50_seconds\": " + std::to_string(tiered_lat.p50) +
      ",\n" +
      "    \"latency_p99_seconds\": " + std::to_string(tiered_lat.p99) +
      "\n  },\n" +
      "  \"baseline_all_resident\": {\n" +
      "    \"resident_bytes\": " + std::to_string(fleet_bytes) + ",\n" +
      "    \"requests\": " + std::to_string(base_lat.count) + ",\n" +
      "    \"throughput_req_per_s\": " +
      std::to_string(static_cast<double>(base_lat.count) / base_seconds) +
      ",\n" +
      "    \"latency_p50_seconds\": " + std::to_string(base_lat.p50) +
      ",\n" +
      "    \"latency_p99_seconds\": " + std::to_string(base_lat.p99) +
      "\n  }\n" +
      "}\n";

  (void)std::system(("rm -rf '" + scratch + "'").c_str());
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
