#include "chaos/scenario.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "chaos/invariants.h"
#include "core/manager.h"
#include "obs/metrics.h"
#include "obs/stats_server.h"
#include "serve/checkpoint.h"
#include "serve/server.h"
#include "simgpu/device.h"
#include "store/tiered_store.h"
#include "ts/datasets.h"

namespace smiler {
namespace chaos {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Order-sensitive FNV-1a accumulator for the scenario fingerprint.
class Digest {
 public:
  void MixBytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= kFnvPrime;
    }
  }
  void MixStr(const std::string& s) { MixBytes(s.data(), s.size()); }
  void MixU64(std::uint64_t v) { MixBytes(&v, sizeof(v)); }
  void MixDouble(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    MixU64(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
};

struct CounterBaseline {
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;

  static CounterBaseline Read() {
    obs::Registry& reg = obs::Registry::Global();
    return CounterBaseline{reg.GetCounter("serve.requests").value(),
                           reg.GetCounter("serve.completed").value(),
                           reg.GetCounter("serve.rejected").value()};
  }
};

/// Requests rejected at enqueue never reach an engine; the engine state
/// they would have touched is exactly as before, so the sensor stays in
/// rotation. Likewise validation failures (InvalidArgument precedes all
/// mutation) and deadline sheds (dropped before any engine work). Every
/// other failure may have interrupted a multi-stage mutation (an append
/// half-applied, a prev_knn threshold seed half-updated), so the harness
/// quarantines the sensor — its state is deliberately suspect and further
/// traffic or invariant sweeps against it would only measure the fault,
/// not the system.
bool ShouldQuarantine(const Status& status) {
  if (status.ok()) return false;
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kDeadlineExceeded:
      return false;
    case StatusCode::kResourceExhausted:
      return status.message().find("request queue is full") ==
             std::string::npos;
    default:
      return true;
  }
}

}  // namespace

SmilerConfig MakeScenarioConfig() {
  SmilerConfig cfg;
  cfg.rho = 4;
  cfg.omega = 8;
  cfg.elv = {16, 24};
  cfg.ekv = {4, 8};
  cfg.horizon = 1;
  return cfg;
}

FaultSchedule DefaultSchedule() {
  FaultSchedule schedule;
  for (const FaultPointInfo& info : KnownFaultPoints()) {
    FaultSpec spec;
    spec.probability = 0.02;
    schedule.points[info.name] = spec;
  }
  // Device faults sit on the hottest paths (every search kernel); keep
  // them rarer so most steps still exercise the healthy pipeline.
  schedule.points["simgpu.launch"].probability = 0.005;
  schedule.points["simgpu.alloc"].probability = 0.005;
  schedule.points["shared_mem.alloc"].probability = 0.01;
  return schedule;
}

ScenarioRunner::ScenarioRunner(ScenarioOptions options)
    : opt_(std::move(options)) {}

ScenarioResult ScenarioRunner::Run() {
  ScenarioResult result;
  Digest digest;
  FaultRegistry& registry = FaultRegistry::Global();
  registry.Disarm();  // never inherit another run's schedule

  // --- Build the fleet (faults disarmed: construction is scaffolding,
  // not the system under test).
  ts::DatasetSpec spec;
  spec.kind = ts::DatasetKind::kRoad;
  spec.num_sensors = opt_.num_sensors;
  spec.points_per_sensor = opt_.history_points + opt_.steps + 4;
  spec.samples_per_day = 64;
  spec.seed = opt_.seed * 0x9E3779B97F4A7C15ULL + 2015;
  auto data_or = ts::MakeDataset(spec);
  if (!data_or.ok()) {
    result.status = data_or.status();
    return result;
  }
  std::vector<ts::TimeSeries> histories;
  std::vector<std::vector<double>> streams(opt_.num_sensors);
  for (int s = 0; s < opt_.num_sensors; ++s) {
    const std::vector<double>& full = (*data_or)[s].values();
    histories.emplace_back(
        (*data_or)[s].sensor_id(),
        std::vector<double>(full.begin(), full.begin() + opt_.history_points));
    streams[s].assign(full.begin() + opt_.history_points, full.end());
  }
  simgpu::Device device;
  auto manager_or =
      core::MultiSensorManager::Create(&device, histories, opt_.config,
                                       opt_.kind);
  if (!manager_or.ok()) {
    result.status = manager_or.status();
    return result;
  }
  serve::ServerOptions server_options;
  server_options.num_shards = opt_.num_shards;
  server_options.queue_capacity = opt_.queue_capacity;
  // Declared before the server so it outlives the fleet holding a raw
  // pointer to it (AttachStore), whatever the exit path.
  std::unique_ptr<store::TieredStateStore> tiered_store;
  auto server_or =
      serve::PredictionServer::Create(std::move(*manager_or), server_options);
  if (!server_or.ok()) {
    result.status = server_or.status();
    return result;
  }
  serve::PredictionServer& server = **server_or;
  if (opt_.store_spill_every > 0) {
    if (opt_.scratch_dir.empty()) {
      result.status = Status::InvalidArgument(
          "store_spill_every requires a scratch_dir for spill segments");
      return result;
    }
    store::StoreOptions store_options;
    store_options.dir = opt_.scratch_dir + "/store_segments";
    // Unlimited budget on purpose: evictions happen on the driver's fixed
    // cadence below, never on a timing-dependent byte threshold, so the
    // store fault-hit sequence replays bit-identically from the options.
    store_options.budget_bytes = std::numeric_limits<std::size_t>::max();
    auto store_or = store::TieredStateStore::Create(store_options);
    if (!store_or.ok()) {
      result.status = store_or.status();
      return result;
    }
    tiered_store = std::move(*store_or);
    Status attached = server.AttachStore(tiered_store.get());
    if (!attached.ok()) {
      result.status = attached;
      return result;
    }
  }
  const CounterBaseline base = CounterBaseline::Read();

  // Stats endpoint (scaffolding, started before arming): reuse the
  // process server if it is already up, otherwise start it for the run.
  int stats_port = -1;
  bool stats_started_here = false;
  if (opt_.stats_port >= 0) {
    obs::StatsServer& stats = obs::StatsServer::Global();
    if (stats.running()) {
      stats_port = stats.port();
    } else {
      stats_port = stats.Start(opt_.stats_port);
      stats_started_here = stats_port >= 0;
    }
  }

  // --- Arm. From here on every exit path must disarm, so the body below
  // has no early returns.
  FaultSchedule schedule = opt_.schedule;
  schedule.seed = opt_.seed;
  registry.Configure(schedule);

  std::vector<char> quarantined(opt_.num_sensors, 0);
  std::vector<std::size_t> stream_pos(opt_.num_sensors, 0);
  std::vector<double> last_value(opt_.num_sensors, 0.0);
  std::uint64_t predicts_issued = 0;
  std::uint64_t rejections = 0;
  std::uint64_t snapshot_barriers = 0;
  std::uint64_t anomaly_cycle = 0;
  bool have_good_checkpoint = false;
  const std::string ckpt_path =
      opt_.scratch_dir.empty() ? std::string()
                               : opt_.scratch_dir + "/chaos_scenario.ckpt";

  auto record = [&](const char* op, int sensor, const Status& status) {
    digest.MixStr(op);
    digest.MixU64(static_cast<std::uint64_t>(sensor));
    const std::string code = StatusCodeName(status.code());
    digest.MixStr(code);
    ++result.status_counts[code];
    ++result.ops;
    if (!status.ok() &&
        status.code() == StatusCode::kResourceExhausted &&
        status.message().find("request queue is full") != std::string::npos) {
      ++rejections;
    }
  };
  auto maybe_quarantine = [&](int sensor, const Status& status) {
    if (sensor >= 0 && !quarantined[sensor] && ShouldQuarantine(status)) {
      quarantined[sensor] = 1;
      ++result.quarantined;
      digest.MixStr("quarantine");
      digest.MixU64(static_cast<std::uint64_t>(sensor));
      // Surface the drained sensor on /healthz (what an operator's probe
      // would page on). Cleared in the teardown below; never fingerprinted.
      obs::HealthRegistry::Global().Set(
          "serve.sensor" + std::to_string(sensor), false,
          std::string("quarantined: ") + StatusCodeName(status.code()));
    }
  };

  for (int step = 0; step < opt_.steps; ++step) {
    // Predict round.
    for (int s = 0; s < opt_.num_sensors; ++s) {
      if (quarantined[s]) continue;
      serve::Deadline deadline = serve::kNoDeadline;
      ++predicts_issued;
      if (opt_.expired_deadline_every > 0 &&
          predicts_issued % opt_.expired_deadline_every == 0) {
        deadline = serve::Clock::now() - std::chrono::hours(1);
      }
      serve::Response response = server.AsyncPredict(s, deadline).get();
      record("predict", s, response.status);
      if (response.status.ok()) {
        digest.MixDouble(response.prediction.mean);
        digest.MixDouble(response.prediction.variance);
      }
      maybe_quarantine(s, response.status);
    }
    // Observe round: each healthy sensor ingests its next streamed point,
    // possibly corrupted by the ts.anomaly fault (driver-side: the
    // registry decides, the harness synthesizes the anomaly — NaN, +inf,
    // spike, stuck-at — and the engine must reject or absorb it without
    // breaking any invariant).
    for (int s = 0; s < opt_.num_sensors; ++s) {
      if (quarantined[s]) continue;
      const std::vector<double>& stream = streams[s];
      double value = stream[stream_pos[s] % stream.size()];
      ++stream_pos[s];
      if (registry.ShouldFire("ts.anomaly")) {
        switch (anomaly_cycle++ % 4) {
          case 0:
            value = std::numeric_limits<double>::quiet_NaN();
            break;
          case 1:
            value = std::numeric_limits<double>::infinity();
            break;
          case 2:
            value = 25.0 + 2.0 * value;  // far outside the z-score range
            break;
          default:
            value = last_value[s];  // stuck sensor
            break;
        }
      }
      serve::Response response =
          server.AsyncObserve(s, value, serve::kNoDeadline).get();
      record("observe", s, response.status);
      if (response.status.ok()) last_value[s] = value;
      maybe_quarantine(s, response.status);
    }

    // Tiered-storage round: demote one healthy sensor (round-robin) to
    // the cold tier with faults LIVE — a torn spill write
    // (store.spill_write) must abort the eviction with the engine still
    // resident, and the next batch's rehydrating Pin must survive (or
    // cleanly retry after) store.rehydrate_read_short. Never quarantine
    // on an eviction failure: the contract is precisely that the engine
    // was not touched.
    if (tiered_store != nullptr &&
        (step + 1) % opt_.store_spill_every == 0) {
      const int victim =
          (step / opt_.store_spill_every) % opt_.num_sensors;
      if (!quarantined[victim]) {
        // Quiesce before evicting: a shard batch releases its pins AFTER
        // answering its requests, so the driver's last response does not
        // imply the pin is gone. A fleet snapshot barrier completes only
        // after every in-flight batch (unpins included) has, which makes
        // the Evict outcome a pure function of the schedule again.
        // Paused, so the harness-internal barrier consumes no scheduled
        // fault hits.
        {
          ScopedPause pause;
          (void)server.Snapshot();
        }
        snapshot_barriers += static_cast<std::uint64_t>(server.num_shards());
        record("store.evict", victim,
               tiered_store->Evict(static_cast<std::size_t>(victim)));
      }
    }

    const bool checkpoint_now =
        (opt_.check_every > 0 && (step + 1) % opt_.check_every == 0) ||
        step == opt_.steps - 1;
    if (!checkpoint_now) continue;

    // Checkpoint traffic runs with faults LIVE: torn writes, failed
    // renames, and short reads are part of the surface under test. The
    // durability contract: after any number of failed saves, the last
    // successfully saved checkpoint must still load (atomic tmp+rename).
    if (!ckpt_path.empty()) {
      Status saved = server.SaveCheckpoint(ckpt_path);
      snapshot_barriers += static_cast<std::uint64_t>(server.num_shards());
      record("ckpt.save", -1, saved);
      if (saved.ok()) have_good_checkpoint = true;
      if (have_good_checkpoint) {
        auto loaded = serve::Checkpoint::Load(ckpt_path);
        record("ckpt.load", -1, loaded.status());
        if (loaded.ok() &&
            loaded->size() != static_cast<std::size_t>(opt_.num_sensors)) {
          result.violations.push_back(
              "recovery: checkpoint lost engines (got " +
              std::to_string(loaded->size()) + ")");
        }
        if (!loaded.ok() && loaded.status().code() == StatusCode::kNotFound) {
          result.violations.push_back(
              "recovery: previously saved checkpoint vanished (rename "
              "atomicity broken)");
        }
      }
    }

    // Invariant sweep over every healthy engine, with injection paused so
    // the harness's own snapshots and round-trip IO consume no scheduled
    // fault hits (replay determinism).
    {
      ScopedPause pause;
      auto snapshots_or = server.Snapshot();
      snapshot_barriers += static_cast<std::uint64_t>(server.num_shards());
      if (!snapshots_or.ok()) {
        result.violations.push_back("sweep: fleet snapshot failed: " +
                                    snapshots_or.status().ToString());
      } else {
        // With the store attached, any sensor may have round-tripped
        // through the quantized cold tier (cold snapshots decode the
        // spill segment; rehydrated engines carry decoded arenas), so
        // arena entries are judged as lower bounds, not bitwise.
        const ArenaCheckMode arena_mode =
            tiered_store != nullptr ? ArenaCheckMode::kQuantizedLowerBound
                                    : ArenaCheckMode::kExact;
        std::vector<core::EngineSnapshot> healthy;
        for (int s = 0; s < opt_.num_sensors; ++s) {
          if (quarantined[s]) continue;
          InvariantChecker::CheckEngineSnapshot(
              "step " + std::to_string(step) + " sensor " + std::to_string(s),
              (*snapshots_or)[s], &result.violations, arena_mode);
          healthy.push_back(std::move((*snapshots_or)[s]));
        }
        if (!opt_.scratch_dir.empty() && !healthy.empty()) {
          InvariantChecker::CheckCheckpointRoundTrip(healthy, opt_.scratch_dir,
                                                     &result.violations);
        }
        if (tiered_store != nullptr) {
          InvariantChecker::CheckStoreResidency("step " + std::to_string(step),
                                                *tiered_store,
                                                &result.violations);
        }
      }
    }

    // Poll the live endpoints mid-storm (faults stay armed: the obs layer
    // has no fault points, so the probes consume no scheduled hits and
    // replay determinism holds; probe outcomes are never fingerprinted).
    if (stats_port >= 0) {
      const std::string metrics =
          obs::StatsServer::Get(stats_port, "/metrics");
      const std::string health =
          obs::StatsServer::Get(stats_port, "/healthz");
      const std::string attribution =
          obs::StatsServer::Get(stats_port, "/attribution");
      if (metrics.find("smiler_serve_completed") != std::string::npos &&
          attribution.find("stage") != std::string::npos && !health.empty()) {
        result.stats_probe_ok = true;
      }
      if (health.find("503") != std::string::npos) {
        result.healthz_degraded_observed = true;
      }
    }
  }

  server.Shutdown();

  // Conservation: every admitted request (client ops that were not shed
  // at admission, plus num_shards snapshot barriers per fleet snapshot)
  // is answered exactly once.
  const CounterBaseline now = CounterBaseline::Read();
  const std::uint64_t admitted = now.requests - base.requests;
  const std::uint64_t completed = now.completed - base.completed;
  const std::uint64_t rejected = now.rejected - base.rejected;
  // Per-sensor queue traffic: every issued Predict plus every consumed
  // stream position is exactly one AsyncPredict/AsyncObserve call
  // (ckpt.save / ckpt.load records are file IO, not shard requests).
  std::uint64_t queue_ops = predicts_issued;
  for (std::size_t consumed : stream_pos) queue_ops += consumed;
  if (admitted != completed) {
    result.violations.push_back(
        "conservation: admitted " + std::to_string(admitted) +
        " != completed " + std::to_string(completed));
  }
  if (admitted != queue_ops - rejections + snapshot_barriers) {
    result.violations.push_back(
        "conservation: admitted " + std::to_string(admitted) +
        " != issued " + std::to_string(queue_ops) + " - rejected " +
        std::to_string(rejections) + " + barriers " +
        std::to_string(snapshot_barriers));
  }
  if (rejected != rejections) {
    result.violations.push_back(
        "conservation: serve.rejected delta " + std::to_string(rejected) +
        " != client-visible rejections " + std::to_string(rejections));
  }
  // Gauge conservation: the per-shard queue-depth gauges are level gauges
  // (+1 at admission, -claimed at batch claim), so after the shutdown
  // drain answered everything they must read exactly 0 — any residue
  // means an admit/claim accounting leak in the lock-free data plane.
  for (int s = 0; s < server.num_shards(); ++s) {
    const double depth = obs::Registry::Global()
                             .GetGauge("serve.shard" + std::to_string(s) +
                                       ".queue_depth")
                             .value();
    if (depth != 0.0) {
      result.violations.push_back(
          "conservation: serve.shard" + std::to_string(s) +
          ".queue_depth gauge reads " + std::to_string(depth) +
          " after drain (expected 0)");
    }
  }

  // Fingerprint: op log (already mixed in issue order) + the sorted
  // trigger log + violations + outcome histogram.
  result.trigger_log = registry.TriggerLog();
  std::sort(result.trigger_log.begin(), result.trigger_log.end(),
            [](const TriggerRecord& a, const TriggerRecord& b) {
              if (a.point != b.point) return a.point < b.point;
              return a.hit < b.hit;
            });
  result.faults_fired = result.trigger_log.size();
  digest.MixU64(registry.Fingerprint());
  for (const std::string& v : result.violations) digest.MixStr(v);
  for (const auto& [code, count] : result.status_counts) {
    digest.MixStr(code);
    digest.MixU64(count);
  }
  result.fingerprint = digest.value();

  // Stats teardown: drop the health components this run registered and
  // stop the endpoint if this run started it (a server that was already
  // up belongs to the surrounding process and is left alone).
  for (int s = 0; s < opt_.num_sensors; ++s) {
    obs::HealthRegistry::Global().Clear("serve.sensor" + std::to_string(s));
  }
  if (stats_started_here) obs::StatsServer::Global().Stop();

  registry.Disarm();
  return result;
}

}  // namespace chaos
}  // namespace smiler
