// smiler_perfbench: the repository benchmark binary.
//
//   smiler_perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --work-dir <dir> [--<spec key> <value>]...
//
// perfbench/run.py builds this binary and passes each workload's fixed
// sizes from perfbench/workloads.json as --<spec key> flags. The untraced
// run (--trace 0) prints the end-to-end metrics; the traced run
// (--trace 1) serves the same schedule once untraced and once with
// bench-side spans, replays it through the layer calls, and prints the
// per-layer metrics, the reconciliation table and the tracing overhead.
// The last stdout line is the result JSON; the exit code is 0 whenever a
// result was printed (its "correct" field carries the verdict).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <string>

#include "obs/obs.h"
#include "perfbench.h"
#include "simgpu/backend.h"

namespace perfbench {
namespace {

using smiler::StatusCode;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "smiler_perfbench: %s\n", message.c_str());
  std::exit(2);
}

double ParseNumber(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' || !std::isfinite(v)) {
    Die("--" + key + ": not a number: '" + text + "'");
  }
  return v;
}

int ParseInt(const std::string& key, const std::string& text) {
  const double v = ParseNumber(key, text);
  if (v != std::floor(v) || v < 0 || v > 1e9) {
    Die("--" + key + ": not a non-negative integer: '" + text + "'");
  }
  return static_cast<int>(v);
}

struct Args {
  WorkloadSpec spec;
  std::uint64_t seed = 0;
  bool trace = false;
  std::string work_dir;
};

Args ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      Die(std::string("expected --key value pairs, got '") + argv[i] + "'");
    }
    kv[argv[i] + 2] = argv[i + 1];
  }
  auto take = [&](const std::string& key) -> std::string {
    auto it = kv.find(key);
    if (it == kv.end()) Die("missing --" + key);
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  auto take_or = [&](const std::string& key, const std::string& dflt) {
    return kv.count(key) != 0 ? take(key) : dflt;
  };
  Args args;
  WorkloadSpec& s = args.spec;
  s.name = take("workload");
  const std::string seed = take("seed");
  if (seed.empty() || seed.size() > 19 ||
      seed.find_first_not_of("0123456789") != std::string::npos) {
    Die("--seed: not a non-negative integer: '" + seed + "'");
  }
  args.seed = std::stoull(seed);
  s.seconds = ParseNumber("seconds", take("seconds"));
  const std::string trace = take("trace");
  if (trace != "0" && trace != "1") Die("--trace must be 0 or 1");
  args.trace = trace == "1";
  args.work_dir = take("work-dir");

  const std::string dataset = take("dataset");
  if (dataset == "road") {
    s.dataset = smiler::ts::DatasetKind::kRoad;
  } else if (dataset == "mall") {
    s.dataset = smiler::ts::DatasetKind::kMall;
  } else if (dataset == "net") {
    s.dataset = smiler::ts::DatasetKind::kNet;
  } else {
    Die("--dataset must be road|mall|net");
  }
  s.sensors = ParseInt("sensors", take("sensors"));
  s.rate = ParseNumber("rate", take("rate"));
  s.zipf = ParseNumber("zipf", take_or("zipf", "0"));
  s.ticks_per_predict =
      ParseInt("ticks-per-predict", take_or("ticks-per-predict", "1"));
  s.budget_slots = ParseInt("budget-slots", take_or("budget-slots", "0"));
  s.setup_reps = ParseInt("setup-reps", take("setup-reps"));
  if (!kv.empty()) Die("unknown flag --" + kv.begin()->first);

  if (s.sensors < 1 || s.setup_reps < 1 || s.seconds <= 0 || s.rate <= 0 ||
      s.ticks_per_predict < 1) {
    Die("sensors, setup-reps, ticks-per-predict, rate and seconds must be "
        "positive");
  }
  return args;
}

/// Stops the server before the store it points at goes away, then drops
/// the deployment's spill segments.
void Teardown(Deployment* dep) {
  dep->server.reset();
  dep->store.reset();
  if (!dep->spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dep->spill_dir, ec);
  }
}

double Median(std::vector<double> v) {
  return ExactQuantile(std::move(v), 0.5).value;
}

/// End-to-end numbers of one serve pass, from raw per-request latencies.
struct EndToEnd {
  Quantile predict_p50, predict_p95, predict_p99;
  Quantile observe_p50, observe_p95, observe_p99;
  double throughput_rps = 0.0;
  double mae = 0.0;
  std::size_t mae_n = 0;
  std::size_t attempted = 0;
  std::size_t not_ok = 0;
  double latency_sum_s = 0.0;  ///< summed e2e latency of measured OK
};

EndToEnd Summarize(const WorkloadSpec& spec, const ServeResult& res) {
  EndToEnd e;
  std::vector<double> predict_ms, observe_ms;
  // Summed per sensor, then in sensor order: each sensor's predictions
  // arrive in a fixed order, the interleaving of sensors does not.
  std::vector<double> abs_err(spec.sensors, 0.0);
  for (const Request& req : res.requests) {
    if (!req.measured) continue;
    ++e.attempted;
    if (req.code != StatusCode::kOk) {
      ++e.not_ok;
      continue;
    }
    const double ms = static_cast<double>(req.LatencyNs()) * 1e-6;
    e.latency_sum_s += ms * 1e-3;
    if (req.op == Op::kPredict) {
      predict_ms.push_back(ms);
      abs_err[req.sensor] += std::fabs(req.value - req.prediction.mean);
      ++e.mae_n;
    } else {
      observe_ms.push_back(ms);
    }
  }
  e.predict_p50 = ExactQuantile(predict_ms, 0.5);
  e.predict_p95 = ExactQuantile(predict_ms, 0.95);
  e.predict_p99 = ExactQuantile(predict_ms, 0.99);
  e.observe_p50 = ExactQuantile(observe_ms, 0.5);
  e.observe_p95 = ExactQuantile(observe_ms, 0.95);
  e.observe_p99 = ExactQuantile(observe_ms, 0.99);
  e.throughput_rps =
      static_cast<double>(e.attempted - e.not_ok) / res.window_seconds;
  double total_err = 0.0;
  for (double err : abs_err) total_err += err;
  e.mae = e.mae_n > 0 ? total_err / static_cast<double>(e.mae_n) : NAN;
  return e;
}

void PrintQuantile(const char* name, const Quantile& q) {
  std::printf("  %-16s %10.4f ms   (n=%zu, beyond=%zu)\n", name, q.value, q.n,
              q.beyond);
}

/// Validity of a serve pass's numbers; returns the reasons it fails.
std::vector<std::string> Validate(const ServeResult& res, const EndToEnd& e) {
  std::vector<std::string> why;
  const Quantile late = ExactQuantile(res.late_ms, 0.99);
  if (late.value > kMaxLateP99Ms) {
    why.push_back("generator late p99 " + std::to_string(late.value) +
                  " ms > bound " + std::to_string(kMaxLateP99Ms));
  }
  if (res.backlog_growth > kMaxBacklogGrowth) {
    why.push_back("backlog grew by " + std::to_string(res.backlog_growth) +
                  " requests over the second half (bound " +
                  std::to_string(kMaxBacklogGrowth) + ")");
  }
  if (e.predict_p95.beyond < 10 || e.observe_p95.beyond < 10) {
    why.push_back("fewer than 10 samples beyond a reported p95");
  }
  if (e.mae_n == 0) why.push_back("no prediction to score");
  return why;
}

void PrintServe(const char* label, const ServeResult& res, const EndToEnd& e) {
  const Quantile late = ExactQuantile(res.late_ms, 0.99);
  std::printf("%s: %zu requests in %.3f s window, %zu not OK\n", label,
              e.attempted, res.window_seconds, e.not_ok);
  PrintQuantile("predict p50", e.predict_p50);
  PrintQuantile("predict p95", e.predict_p95);
  PrintQuantile("predict p99", e.predict_p99);
  PrintQuantile("observe p50", e.observe_p50);
  PrintQuantile("observe p95", e.observe_p95);
  PrintQuantile("observe p99", e.observe_p99);
  std::printf("  throughput       %10.2f req/s\n", e.throughput_rps);
  std::printf("  mae              %10.6f over %zu predictions\n", e.mae,
              e.mae_n);
  std::printf("  peak rss         %10.2f MiB\n", res.peak_rss_mb);
  std::printf("  one-cpu samples  %10.3f (share of the window's samples with "
              "every thread on one CPU)\n",
              res.one_cpu_frac);
  std::printf("  loadgen late p99 %10.4f ms (n=%zu)\n", late.value, late.n);
  std::printf("  backlog          end=%zu, growth over 2nd half=%.1f\n",
              res.backlog_end, res.backlog_growth);
  const double batches = res.registry.hist_count("serve.batch_size");
  std::printf("  server batches   %.0f, mean size %.3f\n", batches,
              res.registry.hist_sum("serve.batch_size") / std::max(1.0, batches));
}

/// Per-layer metrics of the traced run (BENCHMARK.json "per_layer").
void AddLayerMetrics(const std::vector<double>& builds,
                     const ServeResult& tres, const RegistrySnapshot& reg,
                     const ReplayResult& rp, MetricSet* metrics) {
  std::size_t predicts = 0;
  std::vector<double> admit_us;
  for (const Request& req : tres.requests) {
    if (!req.measured) continue;
    admit_us.push_back(static_cast<double>(req.admitted_ns - req.sent_ns) *
                       1e-3);
    if (req.op == Op::kPredict && req.code == StatusCode::kOk) ++predicts;
  }
  const double per_predict =
      1.0 / static_cast<double>(std::max<std::size_t>(predicts, 1));
  double kernel_launches = 0.0;
  const std::string launches = ".launches";
  for (const auto& [name, v] : reg.counters) {
    if (name.rfind("simgpu.kernel.", 0) == 0 && name.size() > launches.size() &&
        name.compare(name.size() - launches.size(), launches.size(),
                     launches) == 0) {
      kernel_launches += v;
    }
  }
  auto layer = [&](const char* name) {
    auto it = rp.layer_seconds.find(name);
    return it == rp.layer_seconds.end() ? 0.0 : it->second;
  };
  const double candidates = reg.counter("index.candidates_total");
  const double verified = reg.counter("index.candidates_verified");
  MetricSet& m = *metrics;
  m.Add("serve.admit_us_p50", ExactQuantile(admit_us, 0.5).value, "us");
  m.Add("serve.queue_wait_s",
        reg.hist_sum("obs.request.stage.queue_wait_seconds"), "s");
  m.Add("serve.batch_size_mean",
        reg.hist_sum("serve.batch_size") /
            std::max(1.0, reg.hist_count("serve.batch_size")),
        "requests");
  m.Add("serve.coalesced", reg.counter("serve.batch.coalesced_predicts"),
        "count");
  m.Add("serve.rejected", reg.counter("serve.rejected"), "count");
  m.Add("serve.deadline_expired", reg.counter("serve.deadline_expired"),
        "count");
  m.Add("core.build_s", Median(builds), "s");
  m.Add("index.lb_filter_s", layer("index.lb_filter"), "s");
  m.Add("index.verify_s", layer("index.verify"), "s");
  m.Add("index.append_s", layer("index.append"), "s");
  m.Add("index.candidates", candidates, "count");
  m.Add("index.verified", verified, "count");
  m.Add("index.verify_frac", verified / std::max(1.0, candidates), "ratio");
  m.Add("index.early_abandoned", reg.counter("index.verify.early_abandoned"),
        "count");
  m.Add("gp.probe_gram_s", rp.gp_probe_gram_seconds, "s");
  m.Add("gp.probe_fit_s", rp.gp_probe_fit_seconds, "s");
  m.Add("gp.probe_cg_iterations", rp.gp_probe_cg_iterations, "count");
  m.Add("predictors.fit_s", layer("predictors.fit"), "s");
  m.Add("predictors.combine_s", layer("predictors.combine"), "s");
  m.Add("store.bind_s", rp.bind_seconds, "s");
  m.Add("store.pin_cold_us_p50", ExactQuantile(rp.pin_cold_us, 0.5).value,
        "us");
  m.Add("store.pin_cold_us_p99", ExactQuantile(rp.pin_cold_us, 0.99).value,
        "us");
  m.Add("store.hit_frac",
        static_cast<double>(rp.pin_hits) /
            static_cast<double>(std::max<std::size_t>(rp.pins, 1)),
        "ratio");
  m.Add("store.enforce_budget_s", layer("store.enforce_budget"), "s");
  m.Add("store.rehydrations", reg.counter("store.rehydrations"), "count");
  m.Add("store.evictions", reg.counter("store.evictions"), "count");
  m.Add("store.resident_high_water_mb",
        reg.gauge("store.resident_bytes_high_water") / (1024.0 * 1024.0),
        "MiB");
  m.Add("simgpu.launches_per_predict", kernel_launches * per_predict,
        "launches");
  m.Add("threadpool.queue_depth_high_water",
        reg.gauge("threadpool.queue_depth_high_water"), "tasks");
  m.Add("loadgen.late_p99_ms", ExactQuantile(tres.late_ms, 0.99).value, "ms");
  m.Add("loadgen.backlog_end", static_cast<double>(tres.backlog_end),
        "requests");
}

/// Bench-timed layer seconds (replay) against the server's owner-clock
/// stage sums against summed end-to-end latency (ROADMAP item 1).
void PrintReconciliation(const std::string& workload,
                         const RegistrySnapshot& reg, const ReplayResult& rp,
                         double e2e_seconds) {
  auto layer = [&](const char* name) {
    auto it = rp.layer_seconds.find(name);
    return it == rp.layer_seconds.end() ? 0.0 : it->second;
  };
  struct Row {
    const char* stage;
    double layer_s;
  };
  // queue_wait, batch_form and publish exist only inside the server.
  // The workloads serve SMiLer-AR engines: their fit is the predictors
  // layer's aggregation, which the server books under forecast with the
  // combine and Observe; the gram and cholesky stages stay empty.
  const Row rows[] = {
      {"queue_wait", 0.0},
      {"batch_form", 0.0},
      {"rehydrate", layer("store.pin")},
      {"lb_filter", layer("index.lb_filter")},
      {"dtw_verify", layer("index.verify")},
      {"gram", 0.0},
      {"cholesky", 0.0},
      {"forecast", layer("predictors.fit") + layer("predictors.combine") +
                       layer("index.append")},
      {"publish", 0.0},
  };
  std::printf("reconciliation (%s; layer = replay spans, stage = server "
              "owner clock, e2e = summed request latency)\n",
              workload.c_str());
  std::printf("  %-12s %12s %12s\n", "stage", "layer_s", "stage_s");
  double layer_total = 0.0, stage_total = 0.0;
  for (const Row& row : rows) {
    const double stage_s = reg.hist_sum(std::string("obs.request.stage.") +
                                        row.stage + "_seconds");
    layer_total += row.layer_s;
    stage_total += stage_s;
    std::printf("  %-12s %12.6f %12.6f%s\n", row.stage, row.layer_s, stage_s,
                row.layer_s > stage_s ? "  layer > stage" : "");
  }
  const bool ordered =
      layer_total <= stage_total && stage_total <= e2e_seconds;
  std::printf("  %-12s %12.6f %12.6f  e2e %.6f  unattributed %.6f  %s\n",
              "total", layer_total, stage_total, e2e_seconds,
              reg.hist_sum("obs.request.unattributed_seconds"),
              ordered ? "ok: layer <= stage <= e2e"
                      : "FLAG: layer <= stage <= e2e fails");
}

int Run(const Args& args) {
  const WorkloadSpec& spec = args.spec;
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) Die("cannot create " + args.work_dir + ": " + ec.message());

  // The simulated grid is the default backend; name it so an inherited
  // SMILER_BACKEND cannot change what is measured.
  smiler::simgpu::Device device(6ULL << 30, 64ULL << 10, nullptr,
                                smiler::simgpu::BackendKind::kSimGrid);
  Env env;
  env.spec = spec;
  env.work_dir = args.work_dir;
  env.device = &device;

  const Inputs inputs = MakeInputs(spec, args.seed);
  {
    // Resident footprint of one engine, for the store budgets.
    auto one = smiler::core::MultiSensorManager::Create(
        &device, {inputs.histories[0]}, smiler::SmilerConfig{}, kKind);
    smiler::store::StoreOptions probe_options;
    probe_options.dir = args.work_dir + "/probe";
    probe_options.budget_bytes = std::numeric_limits<std::size_t>::max();
    auto probe = smiler::store::TieredStateStore::Create(probe_options);
    if (!one.ok() || !probe.ok() || !(*probe)->Bind(&*one, &device).ok()) {
      Die("engine footprint probe failed");
    }
    env.engine_bytes = (*probe)->resident_bytes();
  }
  std::filesystem::remove_all(args.work_dir + "/probe", ec);
  std::printf("workload %s seed %llu: %s, %d sensors x %d history points "
              "(%zu B resident each), %d shards, %.0f ticks/s, %.1f s "
              "window\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              smiler::core::PredictorKindName(kKind), spec.sensors, kHistory,
              env.engine_bytes, kShards, spec.rate,
              spec.seconds);

  // ---- set-up: the first deployment serves; the other repetitions run
  // after the window, so they neither warm nor bloat the measured process.
  std::vector<double> setups, builds;
  auto deploy = [&](int instance) {
    auto d = Deploy(env, inputs, instance);
    if (!d.ok()) Die("deploy: " + d.status().ToString());
    setups.push_back(d->setup_seconds);
    builds.push_back(d->build_seconds);
    return std::move(*d);
  };
  Deployment dep = deploy(0);

  // ---- pass 1: untraced serve ----
  const ServeResult res = Serve(env, inputs, &dep, nullptr);
  Teardown(&dep);
  for (int r = 1; r < spec.setup_reps; ++r) {
    dep = deploy(r);
    Teardown(&dep);
  }
  const double setup_s = Median(setups);
  std::printf("setup: median %.4f s over %d (build %.4f s):", setup_s,
              spec.setup_reps, Median(builds));
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  const EndToEnd e = Summarize(spec, res);
  PrintServe("serve", res, e);
  const CheckResult check = CheckAnswers(env, inputs, res.requests);
  std::printf("check: %zu predictions of %d sensors replayed, %zu differ%s%s\n",
              check.compared, std::min(kCheckSensors, spec.sensors),
              check.wrong, check.first_error.empty() ? "" : ": ",
              check.first_error.c_str());
  std::vector<std::string> invalid = Validate(res, e);

  std::size_t attempted = e.attempted;
  std::size_t failed = e.not_ok + check.wrong_measured;
  bool answers_ok = check.wrong == 0;
  MetricSet metrics;

  if (!args.trace) {
    metrics.Add("setup_s", setup_s, "s");
    metrics.Add("predict_p50_ms", e.predict_p50.value, "ms");
    metrics.Add("observe_p50_ms", e.observe_p50.value, "ms");
    metrics.Add("throughput_rps", e.throughput_rps, "req/s");
    metrics.Add("ok_frac",
                1.0 - static_cast<double>(failed) /
                          static_cast<double>(
                              std::max<std::size_t>(attempted, 1)),
                "ratio");
    metrics.Add("peak_rss_mb", res.peak_rss_mb, "MiB");
    metrics.Add("mae", e.mae, "value");
  } else {
    // ---- traced pass 1: the same schedule with bench-side spans ----
    SpanLog spans;
    dep = deploy(spec.setup_reps);
    const ServeResult tres = Serve(env, inputs, &dep, &spans);
    const RegistrySnapshot& reg = tres.registry;
    Teardown(&dep);
    const EndToEnd te = Summarize(spec, tres);
    PrintServe("traced serve", tres, te);
    std::printf("tracing overhead (traced - untraced): predict p50 %+.4f ms, "
                "predict p95 %+.4f ms, observe p50 %+.4f ms, throughput "
                "%+.2f req/s, %zu spans\n",
                te.predict_p50.value - e.predict_p50.value,
                te.predict_p95.value - e.predict_p95.value,
                te.observe_p50.value - e.observe_p50.value,
                te.throughput_rps - e.throughput_rps, spans.spans().size());
    if (res.one_cpu_frac > 0.5 || tres.one_cpu_frac > 0.5) {
      std::printf("  (not comparable: a pass ran mostly with every thread on "
                  "one CPU, one-cpu samples %.3f untraced, %.3f traced)\n",
                  res.one_cpu_frac, tres.one_cpu_frac);
    }
    for (std::string& why : Validate(tres, te)) {
      invalid.push_back("traced: " + why);
    }
    attempted += te.attempted;
    failed += te.not_ok;

    // ---- traced pass 2: direct replay through the layer calls ----
    auto replay = TracedReplay(env, inputs, tres.requests, &spans);
    if (!replay.ok()) Die("replay: " + replay.status().ToString());
    std::printf("replay: %zu predictions compared bitwise with the traced "
                "serve, %zu differ%s%s (%.3f s wall)\n",
                replay->check.compared, replay->check.wrong,
                replay->check.first_error.empty() ? "" : ": ",
                replay->check.first_error.c_str(), replay->wall_seconds);
    failed += replay->check.wrong_measured;
    answers_ok = answers_ok && replay->check.wrong == 0;

    AddLayerMetrics(builds, tres, reg, *replay, &metrics);
    PrintReconciliation(spec.name, reg, *replay, te.latency_sum_s);
    std::printf("self time (span minus its children), s:");
    for (const auto& [name, self] : spans.SelfSecondsByName()) {
      std::printf(" %s=%.6f", name.c_str(), self);
    }
    std::printf("\n");
    const std::string trace_path = args.work_dir + "/spans.json";
    if (spans.WriteChromeTrace(trace_path)) {
      std::printf("spans: %zu written to %s\n", spans.spans().size(),
                  trace_path.c_str());
    }
  }

  for (const std::string& why : invalid) {
    std::printf("INVALID: %s\n", why.c_str());
  }
  if (!answers_ok) std::printf("WRONG ANSWERS: served != replay\n");
  std::printf("%s\n", metrics.ResultJson(answers_ok && invalid.empty(),
                                         attempted, failed)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
