// Sequential replays of served requests: the correctness check run in
// every invocation, and the traced per-layer replay (traced pass 2).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>

#include "obs/obs.h"
#include "perfbench.h"

namespace perfbench {

namespace {

using smiler::Result;
using smiler::Status;
using smiler::StatusCode;
using smiler::core::PendingPredict;
using smiler::core::SensorEngine;
using smiler::predictors::Prediction;

bool BitwiseEqual(const Prediction& a, const Prediction& b) {
  return std::memcmp(&a.mean, &b.mean, sizeof(double)) == 0 &&
         std::memcmp(&a.variance, &b.variance, sizeof(double)) == 0;
}

/// Compares a replayed prediction with the served one.
void Compare(const Request& served, const Result<Prediction>& replayed,
             CheckResult* out) {
  ++out->compared;
  if (replayed.ok() && BitwiseEqual(*replayed, served.prediction)) return;
  ++out->wrong;
  if (served.measured) ++out->wrong_measured;
  if (out->first_error.empty()) {
    char buf[192];
    if (replayed.ok()) {
      std::snprintf(buf, sizeof(buf),
                    "sensor %d: served (%.17g, %.17g) != replay (%.17g, "
                    "%.17g)",
                    served.sensor, served.prediction.mean,
                    served.prediction.variance, replayed->mean,
                    replayed->variance);
    } else {
      std::snprintf(buf, sizeof(buf), "sensor %d: replay failed: %s",
                    served.sensor, replayed.status().ToString().c_str());
    }
    out->first_error = buf;
  }
}

// A fixed SMiLer-GP probe run in every traced replay, so the gp and la
// layers are timed although every workload serves SMiLer-AR engines: the
// first kGpProbeSensors sensors' histories, kGpProbeSteps predict+observe
// steps each (the first fit is the initial CG search, the rest online).
constexpr int kGpProbeSensors = 4;
constexpr int kGpProbeSteps = 8;

Status GpProbe(const Env& env, const Inputs& inputs, Clock::time_point epoch,
               SpanLog* spans, ReplayResult* out) {
  constexpr int kLane = 1001;
  smiler::obs::Counter& cg =
      smiler::obs::Registry::Global().GetCounter("gp.cg_iterations");
  const double cg_before = static_cast<double>(cg.value());
  auto span = [&](const char* name, std::int64_t t0, double* total) {
    const std::int64_t t1 = NanosSince(epoch);
    spans->Add(name, t0, t1, 0, (std::uint64_t{kLane} << 32), kLane);
    *total += static_cast<double>(t1 - t0) * 1e-9;
  };
  const int sensors = std::min<int>(kGpProbeSensors, inputs.histories.size());
  for (int i = 0; i < sensors; ++i) {
    SMILER_ASSIGN_OR_RETURN(
        SensorEngine engine,
        SensorEngine::Create(env.device, inputs.histories[i],
                             smiler::SmilerConfig{},
                             smiler::core::PredictorKind::kGp));
    const int steps =
        std::min<int>(kGpProbeSteps, inputs.future[i].size());
    for (int k = 0; k < steps; ++k) {
      SMILER_ASSIGN_OR_RETURN(PendingPredict pending, engine.BeginPredict());
      std::int64_t t0 = NanosSince(epoch);
      engine.ComputeGrams(&pending);
      span("gp.probe.gram", t0, &out->gp_probe_gram_seconds);
      t0 = NanosSince(epoch);
      SMILER_RETURN_NOT_OK(engine.FitCells(&pending));
      span("gp.probe.fit", t0, &out->gp_probe_fit_seconds);
      SMILER_RETURN_NOT_OK(engine.FinishPredict(std::move(pending)).status());
      SMILER_RETURN_NOT_OK(engine.Observe(inputs.future[i][k]));
    }
  }
  out->gp_probe_cg_iterations = static_cast<double>(cg.value()) - cg_before;
  return Status::OK();
}

}  // namespace

CheckResult CheckAnswers(const Env& env, const Inputs& inputs,
                         const std::vector<Request>& served) {
  const int n = env.spec.sensors;
  const int k = std::min(kCheckSensors, n);
  std::vector<std::vector<const Request*>> by_sensor(n);
  for (const Request& req : served) {
    if (req.code == StatusCode::kOk) by_sensor[req.sensor].push_back(&req);
  }
  // Sensors evenly spaced in popularity rank, so skewed workloads check
  // hot (resident) and cold (rehydrated) sensors alike.
  std::vector<int> rank(n);
  for (int s = 0; s < n; ++s) rank[s] = s;
  std::stable_sort(rank.begin(), rank.end(), [&](int a, int b) {
    return by_sensor[a].size() > by_sensor[b].size();
  });
  CheckResult out;
  for (int i = 0; i < k; ++i) {
    const int s = rank[static_cast<long>(i) * n / k];
    auto engine = SensorEngine::Create(env.device, inputs.histories[s],
                                       smiler::SmilerConfig{}, kKind);
    if (!engine.ok()) {
      out.first_error = engine.status().ToString();
      ++out.wrong;
      return out;
    }
    for (const Request* req : by_sensor[s]) {
      if (req->op == Op::kPredict) {
        Compare(*req, engine->Predict(), &out);
      } else if (Status st = engine->Observe(req->value); !st.ok()) {
        out.first_error = st.ToString();
        ++out.wrong;
        return out;
      }
    }
  }
  return out;
}

Result<ReplayResult> TracedReplay(const Env& env, const Inputs& inputs,
                                  const std::vector<Request>& served,
                                  SpanLog* spans) {
  const WorkloadSpec& spec = env.spec;
  SMILER_ASSIGN_OR_RETURN(
      smiler::core::MultiSensorManager manager,
      smiler::core::MultiSensorManager::Create(
          env.device, inputs.histories, smiler::SmilerConfig{}, kKind));
  // Every workload replays behind a store, so the store layer is measured
  // everywhere: budgeted on tiered workloads, unlimited (all hits) on the
  // others.
  smiler::store::StoreOptions store_options;
  store_options.dir = env.work_dir + "/replay";
  store_options.budget_bytes =
      spec.budget_slots > 0
          ? static_cast<std::size_t>(spec.budget_slots) * env.engine_bytes
          : std::numeric_limits<std::size_t>::max();
  SMILER_ASSIGN_OR_RETURN(auto store,
                          smiler::store::TieredStateStore::Create(
                              store_options));
  ReplayResult out;
  const Clock::time_point bind_start = Clock::now();
  SMILER_RETURN_NOT_OK(store->Bind(&manager, env.device));
  SMILER_RETURN_NOT_OK(store->EnforceBudget());
  out.bind_seconds =
      std::chrono::duration<double>(Clock::now() - bind_start).count();

  constexpr int kLane = 1000;
  const Clock::time_point epoch = Clock::now();
  struct Child {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Child> children;
  std::uint64_t trace = std::uint64_t{kLane} << 32;
  for (const Request& req : served) {
    if (req.code != StatusCode::kOk) continue;
    children.clear();
    auto timed = [&](const char* name, auto&& call) {
      const std::int64_t t0 = NanosSince(epoch);
      auto result = call();
      const std::int64_t t1 = NanosSince(epoch);
      children.push_back({name, t0, t1});
      if (req.measured) {
        out.layer_seconds[name] += static_cast<double>(t1 - t0) * 1e-9;
      }
      return result;
    };
    const std::size_t s = static_cast<std::size_t>(req.sensor);
    const std::int64_t start = NanosSince(epoch);

    const bool was_resident = store->resident(s);
    SMILER_RETURN_NOT_OK(timed("store.pin", [&] { return store->Pin(s); }));
    if (req.measured) {
      ++out.pins;
      if (was_resident) {
        ++out.pin_hits;
      } else {
        out.pin_cold_us.push_back(
            static_cast<double>(children.back().end_ns -
                                children.back().start_ns) *
            1e-3);
      }
    }
    SensorEngine& engine = manager.engine(s);
    if (req.op == Op::kPredict) {
      Result<PendingPredict> pending = timed(
          "index.lb_filter", [&] { return engine.BeginPredictLb(); });
      Result<Prediction> prediction = Status::Internal("not replayed");
      if (!pending.ok()) {
        prediction = pending.status();
      } else {
        const Status verified = timed("index.verify", [&] {
          return engine.FinishPredictVerify(&*pending);
        });
        if (verified.ok()) {
          // On the SMiLer-AR engines the workloads serve, FitCells is the
          // predictors layer's per-cell aggregation (there is no Gram).
          const Status fit = timed("predictors.fit", [&] {
            return engine.FitCells(&*pending);
          });
          prediction = fit.ok() ? timed("predictors.combine",
                                        [&] {
                                          return engine.FinishPredict(
                                              std::move(*pending));
                                        })
                                : Result<Prediction>(fit);
        } else {
          prediction = verified;
        }
      }
      Compare(req, prediction, &out.check);
    } else {
      SMILER_RETURN_NOT_OK(
          timed("index.append", [&] { return engine.Observe(req.value); }));
    }
    store->Unpin(s);
    SMILER_RETURN_NOT_OK(timed("store.enforce_budget",
                               [&] { return store->EnforceBudget(); }));

    const std::uint64_t root = spans->Add("replay.request", start,
                                          NanosSince(epoch), 0, trace, kLane);
    for (const Child& c : children) {
      spans->Add(c.name, c.start_ns, c.end_ns, root, trace, kLane);
    }
    ++trace;
  }

  // Cold pins of this fleet's own engines, so the store's rehydrate path
  // is timed on every workload, not only where the budget forces it.
  for (int i = 0; i < kColdProbes; ++i) {
    const std::size_t s = static_cast<std::size_t>(
        static_cast<long>(i) * spec.sensors / kColdProbes);
    SMILER_RETURN_NOT_OK(store->Evict(s));
    const std::int64_t t0 = NanosSince(epoch);
    SMILER_RETURN_NOT_OK(store->Pin(s));
    const std::int64_t t1 = NanosSince(epoch);
    store->Unpin(s);
    spans->Add("store.pin_cold_probe", t0, t1, 0, trace++, kLane);
    out.pin_cold_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  SMILER_RETURN_NOT_OK(GpProbe(env, inputs, epoch, spans, &out));
  out.wall_seconds = static_cast<double>(NanosSince(epoch)) * 1e-9;
  store.reset();
  std::error_code ec;
  std::filesystem::remove_all(store_options.dir, ec);
  return out;
}

}  // namespace perfbench
