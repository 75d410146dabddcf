// Input generation, fleet deployment and the open-loop serve pass of the
// benchmark binary.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/obs.h"
#include "perfbench.h"

namespace perfbench {

namespace {

using smiler::Result;
using smiler::Status;
using smiler::core::MultiSensorManager;
using smiler::serve::PredictionServer;
using smiler::serve::Response;

/// splitmix64: a small generator whose output is fixed by the seed alone,
/// whatever the standard library, so a seed names the same inputs
/// everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Samples sensors with Zipf(s) popularity over a seeded permutation of
/// the fleet (s = 0 is uniform).
class Popularity {
 public:
  Popularity(int sensors, double s, Rng* rng) : order_(sensors) {
    for (int i = 0; i < sensors; ++i) order_[i] = i;
    for (int i = sensors - 1; i > 0; --i) {
      std::swap(order_[i], order_[rng->Next() % (i + 1)]);
    }
    cdf_.resize(sensors);
    double total = 0.0;
    for (int r = 0; r < sensors; ++r) {
      total += std::pow(static_cast<double>(r + 1), -s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  int Pick(Rng* rng) const {
    const double u = rng->Uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    const std::size_t rank = std::min<std::size_t>(it - cdf_.begin(),
                                                   cdf_.size() - 1);
    return order_[rank];
  }

 private:
  std::vector<int> order_;
  std::vector<double> cdf_;
};

/// Futures of in-flight requests, swept for completions. A sweep stamps
/// each response when it sees it, so one slow request does not delay the
/// timestamp of a faster one behind it.
class Poller {
 public:
  Poller(Clock::time_point epoch, SpanLog* spans, int lane)
      : epoch_(epoch),
        spans_(spans),
        lane_(lane),
        next_trace_(static_cast<std::uint64_t>(lane) << 32) {}

  void Add(std::future<Response> future, Request* req) {
    pending_.emplace_back(std::move(future), req);
  }
  std::size_t outstanding() const { return pending_.size(); }

  /// Returns the number of responses collected.
  std::size_t Sweep() {
    std::size_t collected = 0;
    for (std::size_t i = 0; i < pending_.size();) {
      auto& [future, req] = pending_[i];
      if (future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      req->done_ns = NanosSince(epoch_);
      Response response = future.get();
      req->code = response.status.code();
      req->prediction = response.prediction;
      if (spans_ != nullptr) {
        const std::uint64_t trace = next_trace_++;
        const std::uint64_t root = spans_->Add(
            "serve.request", req->sched_ns, req->done_ns, 0, trace, lane_);
        spans_->Add("serve.admit", req->sent_ns, req->admitted_ns, root,
                    trace, lane_);
      }
      pending_[i] = std::move(pending_.back());
      pending_.pop_back();
      ++collected;
    }
    return collected;
  }

  void Drain() {
    while (!pending_.empty()) {
      if (Sweep() == 0) Idle();
    }
  }

  /// Sleeps between sweeps that found nothing.
  // Answers take about a millisecond: sleep 20 us (plus timer slack)
  // between sweeps.
  void Idle() const {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }

 private:
  Clock::time_point epoch_;
  SpanLog* spans_;
  int lane_;
  std::uint64_t next_trace_;  ///< trace ids: lane in the high 32 bits
  std::vector<std::pair<std::future<Response>, Request*>> pending_;
};

std::future<Response> Send(PredictionServer* server, Request* req,
                           Clock::time_point epoch) {
  req->sent_ns = NanosSince(epoch);
  std::future<Response> future =
      req->op == Op::kPredict
          ? server->AsyncPredict(static_cast<std::size_t>(req->sensor))
          : server->AsyncObserve(static_cast<std::size_t>(req->sensor),
                                 req->value);
  req->admitted_ns = NanosSince(epoch);
  return future;
}

/// Bitmask of the CPUs this process's threads last ran on (bit i is CPU
/// i; CPUs from 63 up share bit 63), read from /proc/self/task/*/stat.
std::uint64_t ThreadCpus() {
  std::uint64_t mask = 0;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream in(task.path() / "stat");
    const std::string stat{std::istreambuf_iterator<char>(in), {}};
    // Field 2 is "(comm)", which may hold spaces; the fields after it
    // start at field 3, and field 39 is the CPU.
    const std::size_t paren = stat.rfind(')');
    if (paren == std::string::npos) continue;
    std::istringstream fields(stat.substr(paren + 1));
    std::string field;
    int index = 2;
    while (index < 39 && fields >> field) ++index;
    if (index != 39) continue;
    const int cpu = std::atoi(field.c_str());
    mask |= std::uint64_t{1} << std::min(cpu, 63);
  }
  return mask;
}

/// Samples process RSS every 2 ms, and the CPUs its threads run on every
/// 50 ms, until destroyed.
class WindowSampler {
 public:
  WindowSampler() : thread_([this] { Loop(); }) {}
  ~WindowSampler() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  WindowSampler(const WindowSampler&) = delete;
  WindowSampler& operator=(const WindowSampler&) = delete;
  double peak_mb() const {
    return static_cast<double>(peak_.load(std::memory_order_acquire)) /
           (1024.0 * 1024.0);
  }
  /// Share of the CPU samples that found every thread of the process
  /// last run on the same CPU.
  double one_cpu_frac() const {
    const int samples = samples_.load(std::memory_order_acquire);
    return samples == 0 ? 0.0
                        : static_cast<double>(one_cpu_.load(
                              std::memory_order_acquire)) /
                              samples;
  }

 private:
  void Loop() {
    for (int tick = 0;; ++tick) {
      const std::size_t rss = smiler::obs::UpdateProcessRssGauge();
      if (rss > peak_.load(std::memory_order_relaxed)) {
        peak_.store(rss, std::memory_order_release);
      }
      if (tick % 25 == 0) {
        if (std::popcount(ThreadCpus()) == 1) {
          one_cpu_.fetch_add(1, std::memory_order_acq_rel);
        }
        samples_.fetch_add(1, std::memory_order_acq_rel);
      }
      if (stop_.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> peak_{0};
  std::atomic<int> samples_{0};
  std::atomic<int> one_cpu_{0};
  std::thread thread_;
};

/// Opens a measured window: restarts the high-water gauges and returns
/// the instruments to subtract at its end. Level gauges are left alone:
/// the thread pool keeps its queue depth as running deltas, and the
/// server's adaptive batcher reads that gauge, so zeroing it mid-run
/// would change the behaviour being measured.
RegistrySnapshot OpenWindow() {
  smiler::obs::Registry& reg = smiler::obs::Registry::Global();
  reg.GetGauge("threadpool.queue_depth_high_water").Reset();
  reg.GetGauge("store.resident_bytes_high_water").Reset();
  return RegistrySnapshot::Take();
}

/// Least-squares slope of backlog over time, times the span of time the
/// samples cover: how many requests the backlog grew by.
double FittedGrowth(const std::vector<std::pair<double, double>>& samples) {
  if (samples.size() < 2) return 0.0;
  double mt = 0.0, mb = 0.0;
  for (const auto& [t, b] : samples) {
    mt += t;
    mb += b;
  }
  mt /= samples.size();
  mb /= samples.size();
  double num = 0.0, den = 0.0;
  for (const auto& [t, b] : samples) {
    num += (t - mt) * (b - mb);
    den += (t - mt) * (t - mt);
  }
  if (den <= 0.0) return 0.0;
  return num / den * (samples.back().first - samples.front().first);
}

/// Sends schedule[begin, end) on time from this thread, sweeping for
/// completions while it waits for each send time.
void RunOpenPhase(PredictionServer* server, std::vector<Request>* requests,
                  std::size_t begin, std::size_t end, Clock::time_point epoch,
                  std::int64_t phase_ns, double phase_seconds,
                  ServeResult* out, Poller* poller) {
  std::vector<std::pair<double, double>> backlog;  // (s, outstanding)
  std::int64_t next_sample_ns = phase_ns;
  const bool measured = begin < end && (*requests)[begin].measured;
  for (std::size_t i = begin; i < end; ++i) {
    Request& req = (*requests)[i];
    req.sched_ns += phase_ns;
    while (true) {
      const std::int64_t now = NanosSince(epoch);
      if (measured && now >= next_sample_ns) {
        backlog.emplace_back(static_cast<double>(now - phase_ns) * 1e-9,
                             static_cast<double>(poller->outstanding()));
        next_sample_ns = now + 1000000;
      }
      if (now >= req.sched_ns) break;
      if (poller->Sweep() == 0 && req.sched_ns - now > 200000) {
        poller->Idle();
      }
    }
    poller->Add(Send(server, &req, epoch), &req);
    if (measured) {
      out->late_ms.push_back(static_cast<double>(req.sent_ns - req.sched_ns) *
                             1e-6);
    }
  }
  if (!measured) return;
  out->backlog_end = poller->outstanding();
  std::vector<std::pair<double, double>> second_half;
  for (const auto& sample : backlog) {
    if (sample.first >= phase_seconds / 2) second_half.push_back(sample);
  }
  out->backlog_growth = FittedGrowth(second_half);
}

}  // namespace

ServeResult Serve(const Env& env, const Inputs& inputs, Deployment* dep,
                  SpanLog* spans) {
  ServeResult out;
  PredictionServer* server = dep->server.get();
  out.requests = inputs.schedule;
  const Clock::time_point epoch = Clock::now();
  Poller poller(epoch, nullptr, 0);
  RunOpenPhase(server, &out.requests, 0, inputs.warmup_requests, epoch,
               NanosSince(epoch), 0.0, &out, &poller);
  poller.Drain();

  Poller window_poller(epoch, spans, 0);
  const RegistrySnapshot start = OpenWindow();
  const std::int64_t window_ns = NanosSince(epoch);
  {
    WindowSampler sampler;
    RunOpenPhase(server, &out.requests, inputs.warmup_requests,
                 out.requests.size(), epoch, window_ns, env.spec.seconds, &out,
                 &window_poller);
    // The window lasts until the schedule's end or its last answer,
    // whichever is later, as read off the clock.
    const std::int64_t schedule_end_ns =
        window_ns + static_cast<std::int64_t>(env.spec.seconds * 1e9);
    while (NanosSince(epoch) < schedule_end_ns) {
      if (window_poller.Sweep() == 0) window_poller.Idle();
    }
    const std::int64_t end_ns = NanosSince(epoch);
    window_poller.Drain();
    out.peak_rss_mb = sampler.peak_mb();
    out.one_cpu_frac = sampler.one_cpu_frac();
    std::int64_t last_done = end_ns;
    for (const Request& req : out.requests) {
      if (req.measured) last_done = std::max(last_done, req.done_ns);
    }
    out.window_seconds = static_cast<double>(last_done - window_ns) * 1e-9;
  }
  out.registry = RegistrySnapshot::Since(start);
  return out;
}

Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 0x5e1e);
  std::vector<int> length(spec.sensors, 0);
  double t = 0.0;
  auto tick = [&](int s, bool measured, bool predict) {
    Request req;
    req.sensor = s;
    req.measured = measured;
    req.sched_ns = static_cast<std::int64_t>(t * 1e9);
    req.value = length[s];  // index into future[s]; resolved below
    if (predict) {
      req.op = Op::kPredict;
      in.schedule.push_back(req);
    }
    req.op = Op::kObserve;
    in.schedule.push_back(req);
    ++length[s];
  };
  // Warm-up: every sensor predicts and observes kWarmupRounds times, in a
  // seeded order paced at the workload rate, so the window starts on
  // engines that have all served before.
  std::vector<int> order(spec.sensors);
  for (int s = 0; s < spec.sensors; ++s) order[s] = s;
  for (int round = 0; round < kWarmupRounds; ++round) {
    for (int i = spec.sensors - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Next() % (i + 1)]);
    }
    for (int s : order) {
      tick(s, /*measured=*/false, /*predict=*/true);
      t += 1.0 / spec.rate;
    }
  }
  in.warmup_requests = in.schedule.size();
  // Window: a Poisson process at `rate` conditioned on its count, so every
  // seed offers the same number of ticks: n = rate x seconds arrivals at
  // the normalised partial sums of n + 1 exponential gaps. Each tick
  // observes the sensor's next value; every ticks_per_predict-th tick of
  // a sensor first predicts that value.
  const std::size_t n =
      static_cast<std::size_t>(std::llround(spec.rate * spec.seconds));
  std::vector<double> arrival(n + 1);
  double total = 0.0;
  for (double& a : arrival) {
    total += -std::log1p(-rng.Uniform());
    a = total;
  }
  const Popularity popularity(spec.sensors, spec.zipf, &rng);
  std::vector<int> ticks(spec.sensors, 0);
  for (std::size_t k = 0; k < n; ++k) {
    t = arrival[k] / total * spec.seconds;
    const int s = popularity.Pick(&rng);
    tick(s, /*measured=*/true, ticks[s]++ % spec.ticks_per_predict == 0);
  }
  const int longest = *std::max_element(length.begin(), length.end());

  smiler::ts::DatasetSpec data;
  data.kind = spec.dataset;
  data.num_sensors = spec.sensors;
  data.points_per_sensor = kHistory + longest + 1;
  data.samples_per_day = 96;
  data.seed = seed;
  auto series = smiler::ts::MakeDataset(data);
  if (!series.ok()) {
    std::fprintf(stderr, "dataset: %s\n", series.status().ToString().c_str());
    std::exit(1);
  }
  for (int s = 0; s < spec.sensors; ++s) {
    const std::vector<double>& all = (*series)[s].values();
    in.histories.emplace_back(
        (*series)[s].sensor_id(),
        std::vector<double>(all.begin(), all.begin() + kHistory));
    in.future.emplace_back(all.begin() + kHistory, all.end());
  }
  for (Request& req : in.schedule) {
    req.value = in.future[req.sensor][static_cast<std::size_t>(req.value)];
  }
  return in;
}

Result<Deployment> Deploy(const Env& env, const Inputs& inputs,
                          int instance) {
  const WorkloadSpec& spec = env.spec;
  Deployment dep;
  const Clock::time_point t0 = Clock::now();
  SMILER_ASSIGN_OR_RETURN(
      MultiSensorManager manager,
      MultiSensorManager::Create(env.device, inputs.histories,
                                 smiler::SmilerConfig{}, kKind));
  const Clock::time_point t1 = Clock::now();
  smiler::serve::ServerOptions options;
  options.num_shards = kShards;
  SMILER_ASSIGN_OR_RETURN(dep.server,
                          PredictionServer::Create(std::move(manager), options));
  if (spec.budget_slots > 0) {
    smiler::store::StoreOptions store_options;
    store_options.dir = env.work_dir + "/spill" + std::to_string(instance);
    dep.spill_dir = store_options.dir;
    store_options.budget_bytes =
        static_cast<std::size_t>(spec.budget_slots) * env.engine_bytes;
    SMILER_ASSIGN_OR_RETURN(dep.store,
                            smiler::store::TieredStateStore::Create(
                                store_options));
    SMILER_RETURN_NOT_OK(dep.server->AttachStore(dep.store.get()));
    SMILER_RETURN_NOT_OK(dep.store->EnforceBudget());
  }
  dep.build_seconds = std::chrono::duration<double>(t1 - t0).count();
  dep.setup_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return dep;
}

}  // namespace perfbench
