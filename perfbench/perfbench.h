// Shared types of the repository benchmark binary (smiler_perfbench).
//
// The benchmark generates a workload's inputs from a seed, serves them
// through serve::PredictionServer, checks the answers against a
// sequential replay, and reports end-to-end metrics (untraced run) or
// per-layer metrics (traced run). perfbench/README.md describes the
// workloads and metrics; perfbench/workloads.json holds their sizes.

#ifndef SMILER_PERFBENCH_PERFBENCH_H_
#define SMILER_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "core/manager.h"
#include "serve/server.h"
#include "simgpu/device.h"
#include "store/tiered_store.h"
#include "ts/datasets.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since \p epoch.
inline std::int64_t NanosSince(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

/// Settings every workload shares. The fleets are SMiLer-AR: a
/// closed-loop SMiLer-GP workload did not repeat within the largest
/// allowed bound (perfbench/README.md), so the gp layer is timed by the
/// traced run's GP probe instead.
constexpr smiler::core::PredictorKind kKind = smiler::core::PredictorKind::kAr;
constexpr int kHistory = 1024;    ///< points each engine's index is built from
constexpr int kShards = 4;        ///< server shards
constexpr int kWarmupRounds = 1;  ///< predict+observe of every sensor
constexpr int kCheckSensors = 8;  ///< sensors replayed for the correctness check
constexpr int kColdProbes = 16;   ///< evict+pin pairs timed after the traced replay
/// Validity bounds of an open-loop run: the generator's send lateness
/// p99, and how many requests the backlog may grow by over the second
/// half of the window.
constexpr double kMaxLateP99Ms = 10.0;
constexpr double kMaxBacklogGrowth = 50.0;

/// Fixed sizes and rates of one workload (perfbench/workloads.json).
/// Traffic comes from one generator thread sending Poisson ticks at
/// `rate` per second.
struct WorkloadSpec {
  std::string name;
  smiler::ts::DatasetKind dataset = smiler::ts::DatasetKind::kRoad;
  int sensors = 0;
  double seconds = 10.0;  ///< measured window
  double rate = 0.0;
  double zipf = 0.0;          ///< popularity exponent; 0 = uniform
  int ticks_per_predict = 1;  ///< every n-th tick of a sensor predicts
  int budget_slots = 0;       ///< > 0: tiered store holding this many engines
  int setup_reps = 3;
};

enum class Op : std::uint8_t { kPredict, kObserve };

/// One request of the workload: what was sent, and what came back.
/// Times are nanoseconds since the serve pass's epoch.
struct Request {
  Op op = Op::kPredict;
  bool measured = false;  ///< inside the measured window
  int sensor = 0;
  /// Observe: the value sent. Predict: the truth it forecasts (the
  /// sensor's next observed value).
  double value = 0.0;
  std::int64_t sched_ns = 0;     ///< when it was due
  std::int64_t sent_ns = 0;      ///< when the async call was made
  std::int64_t admitted_ns = 0;  ///< when the async call returned
  std::int64_t done_ns = -1;     ///< when the poller saw the response
  smiler::StatusCode code = smiler::StatusCode::kOk;
  smiler::predictors::Prediction prediction;

  /// From the scheduled send time, so a late send counts against it.
  std::int64_t LatencyNs() const { return done_ns - sched_ns; }
};

/// The generated inputs of one run.
struct Inputs {
  std::vector<smiler::ts::TimeSeries> histories;  ///< engine build input
  /// Per sensor, the values observed after the history, in order.
  std::vector<std::vector<double>> future;
  /// The whole schedule (warm-up, then window), in send order.
  std::vector<Request> schedule;
  std::size_t warmup_requests = 0;
};

Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed);

/// A fleet behind a server, plus the store on tiered workloads.
struct Deployment {
  // Declared first so it outlives the server, which holds a pointer to it.
  std::unique_ptr<smiler::store::TieredStateStore> store;
  std::unique_ptr<smiler::serve::PredictionServer> server;
  double build_seconds = 0.0;  ///< MultiSensorManager::Create
  /// Create + server start (+ AttachStore and first EnforceBudget).
  double setup_seconds = 0.0;
  std::string spill_dir;       ///< the store's segments; empty = no store
};

/// Process-wide resources every fleet of a run shares.
struct Env {
  WorkloadSpec spec;
  std::string work_dir;  ///< spill segments, trace output
  smiler::simgpu::Device* device = nullptr;
  std::size_t engine_bytes = 0;  ///< resident footprint of one engine
};

smiler::Result<Deployment> Deploy(const Env& env, const Inputs& inputs,
                                  int instance);

/// A bench-side span. Spans of one request share `trace` (unique per
/// request: the lane in the high 32 bits); `parent` is the enclosing
/// span's id (0 = root).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  int lane = 0;  ///< Chrome-trace tid: generator thread or replay
};

/// Spans kept in memory for the run and written out at exit.
class SpanLog {
 public:
  std::uint64_t Add(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t parent,
                    std::uint64_t trace, int lane);
  const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace_event JSON (open in Perfetto / chrome://tracing).
  bool WriteChromeTrace(const std::string& path) const;
  /// Span duration minus the union of its children's intervals, summed
  /// by span name.
  std::map<std::string, double> SelfSecondsByName() const;

 private:
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Registry instruments over a measured window: counter and histogram
/// deltas, gauges as read at the window's end.
struct RegistrySnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, double> hist_sums;
  std::map<std::string, double> hist_counts;

  static RegistrySnapshot Take();
  /// Take() minus \p start for counters and histograms.
  static RegistrySnapshot Since(const RegistrySnapshot& start);
  double counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  double hist_sum(const std::string& name) const;
  double hist_count(const std::string& name) const;
};

/// Everything one serve pass observed.
struct ServeResult {
  std::vector<Request> requests;     ///< every request sent, send order
  double window_seconds = 0.0;       ///< measured window wall time
  std::vector<double> late_ms;       ///< generator lateness per send
  double backlog_growth = 0.0;       ///< fitted growth over 2nd half
  std::size_t backlog_end = 0;       ///< outstanding at schedule end
  double peak_rss_mb = 0.0;          ///< RSS high-water over the window
  /// Share of 50 ms samples over the window that found every thread of
  /// the process on one CPU. Near 1 on a multi-core machine, the scheduler
  /// kept the process on one CPU, which roughly doubles latencies (see
  /// perfbench/README.md).
  double one_cpu_frac = 0.0;
  RegistrySnapshot registry;         ///< the window's instruments
};

/// Runs the workload's traffic through \p dep. With \p spans, records an
/// admit and a request span per request.
ServeResult Serve(const Env& env, const Inputs& inputs, Deployment* dep,
                  SpanLog* spans);

/// Outcome of replaying served requests sequentially on a fresh fleet.
struct CheckResult {
  std::size_t compared = 0;  ///< predictions compared bitwise
  std::size_t wrong = 0;     ///< predictions that differ
  std::size_t wrong_measured = 0;
  std::string first_error;
};

/// Correctness check: replays the OK requests of kCheckSensors
/// sensors through SensorEngine::Predict/Observe on fresh engines.
CheckResult CheckAnswers(const Env& env, const Inputs& inputs,
                         const std::vector<Request>& served);

/// Per-layer numbers of the traced direct replay.
struct ReplayResult {
  CheckResult check;  ///< every prediction, compared against the server
  std::map<std::string, double> layer_seconds;  ///< measured requests only
  std::vector<double> pin_cold_us;
  double bind_seconds = 0.0;  ///< Bind + first EnforceBudget
  /// The fixed SMiLer-GP probe (replay.cc): Gram and fit seconds, and the
  /// CG iterations its fits took.
  double gp_probe_gram_seconds = 0.0;
  double gp_probe_fit_seconds = 0.0;
  double gp_probe_cg_iterations = 0.0;
  std::size_t pins = 0;
  std::size_t pin_hits = 0;
  double wall_seconds = 0.0;
};

/// Traced pass 2: replays every OK request in send order, single
/// threaded, through the SensorEngine phase calls and the
/// TieredStateStore calls of a fresh fleet, with a span around each; then
/// times cold pins and a fixed SMiLer-GP probe.
smiler::Result<ReplayResult> TracedReplay(const Env& env, const Inputs& inputs,
                                          const std::vector<Request>& served,
                                          SpanLog* spans);

/// An exact order statistic of raw samples: the nearest-rank value, the
/// sample count, and how many samples lie above its rank.
struct Quantile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};
Quantile ExactQuantile(std::vector<double> samples, double q);

/// Named metrics in emission order, printed as the result JSON line.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ResultJson(bool correct, std::size_t attempted,
                         std::size_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // SMILER_PERFBENCH_PERFBENCH_H_
