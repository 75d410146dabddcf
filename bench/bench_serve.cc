// Serving-layer throughput/latency on the Fig-12 continuous-prediction
// workload: every sensor takes one Predict + one Observe per step.
//
// Two phases over identical data and engine configuration:
//   baseline  the pre-serve driving loop — a single caller thread stepping
//             MultiSensorManager::PredictAll / ObserveAll
//   serve     the sharded PredictionServer under closed-loop clients
//             (one blocking Predict+Observe stream per client)
//
// Emits a JSON report (throughput plus p50/p99 request latency from the
// serve.latency_seconds histogram) to --out <path>, or stdout when the
// flag is absent. scripts/bench_regression.sh distils this into
// BENCH_serve.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "simgpu/backend.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace smiler;
  using namespace smiler::bench;
  InitObsFlags(argc, argv);
  std::string out_path;
  bool sweep_enabled = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--sweep") == 0) sweep_enabled = true;
  }

  // Resolve the execution backend up front so a typoed SMILER_BACKEND
  // fails the run immediately instead of failing every kernel launch.
  const auto backend_kind = simgpu::BackendKindFromEnv();
  if (!backend_kind.ok()) {
    std::fprintf(stderr, "%s\n", backend_kind.status().ToString().c_str());
    return 1;
  }
  const char* backend_name = simgpu::BackendKindName(*backend_kind);

  const BenchScale scale = GetScale();
  const SmilerConfig cfg = PaperConfig();
  const int warmup = scale.points - scale.predict_steps - 32;
  const int steps = scale.predict_steps;
  auto sensors = MakeBenchDataset(ts::DatasetKind::kMall, scale);

  auto make_manager = [&]() {
    std::vector<ts::TimeSeries> histories;
    for (const auto& s : sensors) {
      histories.emplace_back(
          s.sensor_id(),
          std::vector<double>(s.values().begin(), s.values().begin() + warmup));
    }
    // Engines of both phases charge one device. It gets a dedicated
    // two-worker block pool (a device's execution resources are its own,
    // not the host's), which also keeps the request fan-out crossing
    // onto pool workers — and thus visible in the exemplar span trees —
    // on single-core runners where the default pool has no helpers.
    static ThreadPool device_pool(2);
    static simgpu::Device device(6ULL << 30, 64ULL << 10, &device_pool);
    return core::MultiSensorManager::Create(&device, histories, cfg,
                                            core::PredictorKind::kAr);
  };

  PrintHeader("serve: Fig-12 workload, SMiLer-AR");
  std::printf("sensors=%d warmup=%d steps=%d backend=%s\n", scale.sensors,
              warmup, steps, backend_name);

  // ---- baseline: single caller thread over the manager fan-out ----
  auto baseline_manager = make_manager();
  if (!baseline_manager.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 baseline_manager.status().ToString().c_str());
    return 1;
  }
  const auto base_t0 = Clock::now();
  std::vector<predictors::Prediction> preds;
  for (int step = 0; step < steps; ++step) {
    if (!baseline_manager->PredictAll(&preds).ok()) return 1;
    std::vector<double> values(sensors.size());
    for (std::size_t s = 0; s < sensors.size(); ++s) {
      values[s] = sensors[s].values()[warmup + step];
    }
    if (!baseline_manager->ObserveAll(values).ok()) return 1;
  }
  const double base_seconds = SecondsSince(base_t0);
  const double base_requests =
      2.0 * static_cast<double>(steps) * static_cast<double>(sensors.size());
  std::printf("baseline  %8.0f req/s  (%.3fs, single caller thread)\n",
              base_requests / base_seconds, base_seconds);

  // ---- serve: sharded server under closed-loop clients ----
  auto serve_manager = make_manager();
  if (!serve_manager.ok()) return 1;
  serve::ServerOptions options;
  options.num_shards = 4;
  options.queue_capacity = 1024;
  auto server =
      serve::PredictionServer::Create(std::move(*serve_manager), options);
  if (!server.ok()) {
    std::fprintf(stderr, "server create failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  // Isolate the serve measurement: reset the registry and drop the
  // baseline phase's spans/exemplars so the attribution table and the
  // exemplar trace describe only the sharded-server phase.
  obs::Registry::Global().ResetAll();
  obs::ExemplarReservoir::Global().Clear();
  obs::Tracer::Global().Clear();

  const int num_clients =
      static_cast<int>(std::min<std::size_t>(4, sensors.size()));
  const auto serve_t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      for (int step = 0; step < steps; ++step) {
        for (std::size_t s = c; s < sensors.size();
             s += static_cast<std::size_t>(num_clients)) {
          if (!(*server)->Predict(s).ok()) return;
          if (!(*server)->Observe(s, sensors[s].values()[warmup + step]).ok())
            return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double serve_seconds = SecondsSince(serve_t0);
  (*server)->Shutdown();

  const auto lat =
      obs::Registry::Global().GetHistogram("serve.latency_seconds").Snap();
  const double serve_requests = static_cast<double>(lat.count);
  std::printf(
      "serve     %8.0f req/s  (%.3fs, %d shards, %d clients)  "
      "p50=%.1fus p99=%.1fus\n",
      serve_requests / serve_seconds, serve_seconds, (*server)->num_shards(),
      num_clients, lat.p50 * 1e6, lat.p99 * 1e6);

  // Per-stage attribution: global owner-clock totals (all 9 stages, even
  // the ones this AR workload never touches — readers should see a 0, not
  // a missing key) plus the per-shard breakdown from the serve gauges.
  std::printf("%s", obs::AttributionTableText().c_str());
  obs::Registry& reg = obs::Registry::Global();
  std::string attribution = "  \"attribution\": {\n    \"stages_seconds_total\": {";
  for (int s = 0; s < obs::kNumStages; ++s) {
    const auto snap =
        reg.GetHistogram(std::string("obs.request.stage.") +
                         obs::StageName(static_cast<obs::Stage>(s)) +
                         "_seconds")
            .Snap();
    attribution += std::string(s == 0 ? "" : ",") + "\n      \"" +
                   obs::StageName(static_cast<obs::Stage>(s)) +
                   "\": " + std::to_string(snap.sum);
  }
  attribution += "\n    },\n    \"unattributed_seconds_total\": " +
                 std::to_string(
                     reg.GetHistogram("obs.request.unattributed_seconds")
                         .Snap()
                         .sum) +
                 ",\n    \"per_shard_seconds_total\": {";
  for (int sh = 0; sh < (*server)->num_shards(); ++sh) {
    attribution += std::string(sh == 0 ? "" : ",") + "\n      \"shard" +
                   std::to_string(sh) + "\": {";
    for (int s = 0; s < obs::kNumStages; ++s) {
      const double v =
          reg.GetGauge("serve.shard" + std::to_string(sh) + ".stage." +
                       obs::StageName(static_cast<obs::Stage>(s)) +
                       "_seconds_total")
              .value();
      attribution += std::string(s == 0 ? "" : ", ") + "\"" +
                     obs::StageName(static_cast<obs::Stage>(s)) +
                     "\": " + std::to_string(v);
    }
    attribution += "}";
  }
  attribution += "\n    }\n  },\n";

  // ---- gp variant: the same sharded workload under SMiLer-GP ----
  // The AR fleet never enters the gram/cholesky stages (PredictorKind::kAr
  // bypasses the GP entirely), which is why the fig12 attribution above
  // legitimately reports 0.000000 for them. A short GP-fleet pass through
  // the same server path gives those columns live, non-zero values.
  obs::Registry::Global().ResetAll();
  obs::ExemplarReservoir::Global().Clear();
  obs::Tracer::Global().Clear();
  const int gp_steps = std::max(2, steps / 10);
  ThreadPool gp_pool(2);
  simgpu::Device gp_device(6ULL << 30, 64ULL << 10, &gp_pool);
  std::vector<ts::TimeSeries> gp_histories;
  for (const auto& s : sensors) {
    gp_histories.emplace_back(
        s.sensor_id(),
        std::vector<double>(s.values().begin(), s.values().begin() + warmup));
  }
  auto gp_manager = core::MultiSensorManager::Create(
      &gp_device, gp_histories, cfg, core::PredictorKind::kGp);
  if (!gp_manager.ok()) {
    std::fprintf(stderr, "gp create failed: %s\n",
                 gp_manager.status().ToString().c_str());
    return 1;
  }
  auto gp_server =
      serve::PredictionServer::Create(std::move(*gp_manager), options);
  if (!gp_server.ok()) return 1;
  const auto gp_t0 = Clock::now();
  std::vector<std::thread> gp_clients;
  for (int c = 0; c < num_clients; ++c) {
    gp_clients.emplace_back([&, c] {
      for (int step = 0; step < gp_steps; ++step) {
        for (std::size_t s = c; s < sensors.size();
             s += static_cast<std::size_t>(num_clients)) {
          if (!(*gp_server)->Predict(s).ok()) return;
          if (!(*gp_server)
                   ->Observe(s, sensors[s].values()[warmup + step])
                   .ok())
            return;
        }
      }
    });
  }
  for (auto& t : gp_clients) t.join();
  const double gp_seconds = SecondsSince(gp_t0);
  (*gp_server)->Shutdown();
  const auto gp_lat =
      obs::Registry::Global().GetHistogram("serve.latency_seconds").Snap();
  std::printf("gp-variant %7.0f req/s  (%.3fs, %d steps, SMiLer-GP)\n",
              static_cast<double>(gp_lat.count) / gp_seconds, gp_seconds,
              gp_steps);
  std::string gp_block = "  \"gp_variant\": {\n    \"predictor\": \"gp\",\n";
  gp_block += "    \"steps\": " + std::to_string(gp_steps) + ",\n";
  gp_block += "    \"requests\": " + std::to_string(gp_lat.count) + ",\n";
  gp_block +=
      "    \"throughput_req_per_s\": " +
      std::to_string(static_cast<double>(gp_lat.count) / gp_seconds) +
      ",\n    \"stages_seconds_total\": {";
  for (int s = 0; s < obs::kNumStages; ++s) {
    const auto snap =
        reg.GetHistogram(std::string("obs.request.stage.") +
                         obs::StageName(static_cast<obs::Stage>(s)) +
                         "_seconds")
            .Snap();
    gp_block += std::string(s == 0 ? "" : ",") + "\n      \"" +
                obs::StageName(static_cast<obs::Stage>(s)) +
                "\": " + std::to_string(snap.sum);
  }
  gp_block += "\n    }\n  },\n";

  // ---- shard-scaling sweep (--sweep): shards x clients, closed loop ----
  // Fresh AR fleet per cell so no warm state leaks between configs; the
  // scripts/check.sh scaling gate and docs/performance.md read the
  // resulting "sweep" block out of BENCH_serve.json.
  std::string sweep_block;
  if (sweep_enabled) {
    const int sweep_steps = std::max(2, steps / 10);
    const int shard_grid[] = {1, 2, 4};
    const int client_grid[] = {1, 4, 8};
    sweep_block = "  \"sweep\": {\n    \"steps\": " +
                  std::to_string(sweep_steps) +
                  ",\n    \"sensors\": " + std::to_string(scale.sensors) +
                  ",\n    \"configs\": [";
    bool first = true;
    for (int shards : shard_grid) {
      for (int clients_wanted : client_grid) {
        auto sweep_manager = make_manager();
        if (!sweep_manager.ok()) return 1;
        serve::ServerOptions sweep_options;
        sweep_options.num_shards = shards;
        sweep_options.queue_capacity = 1024;
        auto sweep_server = serve::PredictionServer::Create(
            std::move(*sweep_manager), sweep_options);
        if (!sweep_server.ok()) return 1;
        const int n_clients = static_cast<int>(
            std::min<std::size_t>(clients_wanted, sensors.size()));
        std::atomic<long> issued{0};
        const auto t0 = Clock::now();
        std::vector<std::thread> sweep_clients;
        for (int c = 0; c < n_clients; ++c) {
          sweep_clients.emplace_back([&, c] {
            for (int step = 0; step < sweep_steps; ++step) {
              for (std::size_t s = static_cast<std::size_t>(c);
                   s < sensors.size();
                   s += static_cast<std::size_t>(n_clients)) {
                if (!(*sweep_server)->Predict(s).ok()) return;
                if (!(*sweep_server)
                         ->Observe(s, sensors[s].values()[warmup + step])
                         .ok())
                  return;
                issued.fetch_add(2);
              }
            }
          });
        }
        for (auto& t : sweep_clients) t.join();
        const double sweep_seconds = SecondsSince(t0);
        const int effective_shards = (*sweep_server)->num_shards();
        (*sweep_server)->Shutdown();
        const double tput =
            static_cast<double>(issued.load()) / sweep_seconds;
        std::printf("sweep  shards=%d clients=%d  %8.0f req/s  (%.3fs)\n",
                    effective_shards, n_clients, tput, sweep_seconds);
        sweep_block += std::string(first ? "" : ",");
        first = false;
        sweep_block +=
            "\n      {\"shards\": " + std::to_string(effective_shards) +
            ", \"clients\": " + std::to_string(n_clients) +
            ", \"requests\": " + std::to_string(issued.load()) +
            ", \"throughput_req_per_s\": " + std::to_string(tput) + "}";
      }
    }
    sweep_block += "\n    ]\n  },\n";
  }

  const std::string json =
      std::string("{\n") +
      "  \"workload\": \"bench_serve fig12 SMiLer-AR\",\n" +
      "  \"backend\": \"" + backend_name + "\",\n" +
      "  \"sensors\": " + std::to_string(scale.sensors) + ",\n" +
      "  \"steps\": " + std::to_string(steps) + ",\n" + attribution +
      gp_block + sweep_block +
      "  \"serve\": {\n" +
      "    \"num_shards\": " + std::to_string((*server)->num_shards()) +
      ",\n" +
      "    \"clients\": " + std::to_string(num_clients) + ",\n" +
      "    \"requests\": " + std::to_string(lat.count) + ",\n" +
      "    \"throughput_req_per_s\": " +
      std::to_string(serve_requests / serve_seconds) + ",\n" +
      "    \"latency_p50_seconds\": " + std::to_string(lat.p50) + ",\n" +
      "    \"latency_p99_seconds\": " + std::to_string(lat.p99) + "\n" +
      "  },\n" +
      "  \"baseline_single_thread_manager_loop\": {\n" +
      "    \"requests\": " +
      std::to_string(static_cast<long>(base_requests)) + ",\n" +
      "    \"throughput_req_per_s\": " +
      std::to_string(base_requests / base_seconds) + "\n" +
      "  }\n" +
      "}\n";
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
