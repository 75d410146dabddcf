#ifndef SMILER_SERVE_SERVER_H_
#define SMILER_SERVE_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "core/manager.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "predictors/predictor.h"
#include "serve/spsc_ring.h"

namespace smiler {
namespace store {
class TieredStateStore;
}  // namespace store
namespace serve {

/// Wall clock of the serving layer (deadlines, latency accounting).
using Clock = std::chrono::steady_clock;
/// Absolute per-request deadline; kNoDeadline = never expires.
using Deadline = Clock::time_point;
inline constexpr Deadline kNoDeadline = Deadline::max();

/// \brief Sizing of a PredictionServer.
struct ServerOptions {
  /// Worker shards. Each shard is single-threaded over the engines it
  /// owns (sensors assigned round-robin), so engine code stays lock-free.
  int num_shards = 2;
  /// Bounded per-shard admission budget, enforced across every producer
  /// lane of the shard. Enqueueing into a full shard is rejected
  /// immediately with kResourceExhausted (admission control) — the
  /// server sheds load instead of buffering unboundedly or blocking.
  std::size_t queue_capacity = 256;
};

/// \brief Outcome of one request. `prediction` is meaningful only for
/// Predict requests whose `status` is OK.
struct Response {
  Status status;
  predictors::Prediction prediction;
};

/// \brief Multi-tenant prediction front-end over a fleet of SensorEngines
/// (the ROADMAP's "serve heavy traffic" layer; per-sensor engines are
/// naturally shardable — Section 4.4 "invoke more blocks").
///
/// Architecture (docs/architecture.md section 5.5): sensors are sharded
/// round-robin across worker shards. The data plane between clients and a
/// shard is a set of lock-free SPSC rings — one lane per (producer
/// thread, shard) pair — so the steady-state enqueue path takes no lock;
/// a shard-wide reservation counter enforces `queue_capacity` across the
/// lanes. Each shard's single worker thread drains the lanes into
/// near-FIFO micro-batches (merged by enqueue time) whose size adapts to
/// the observed backlog. Predicts for one sensor with no Observe between
/// them share one engine pass (coalescing), and each run of Predicts
/// executes as one fleet in phases: every sensor's Search Step, one
/// fused cross-sensor `gp.gram_batch` device launch, then every sensor's
/// Prediction Step. Admission control rejects when the shard is full;
/// expired deadlines are shed at dequeue time, before any search work is
/// paid for. `Snapshot` barriers
/// travel on a separate control-plane queue (exempt from data-plane
/// capacity) and quiesce each shard at a batch boundary, exporting every
/// engine's state for `serve::Checkpoint` warm restarts.
///
/// Thread safety: all public methods are safe to call from any number of
/// client threads. Every accepted request is eventually answered exactly
/// once (shutdown drains the lanes first), so closed-loop clients never
/// hang on a lost response.
class PredictionServer {
 public:
  /// Takes ownership of \p manager's engine fleet and starts the shard
  /// workers. num_shards is clamped to the sensor count.
  static Result<std::unique_ptr<PredictionServer>> Create(
      core::MultiSensorManager manager, const ServerOptions& options = {});

  /// Shuts down (drains queues, joins workers) if still running.
  ~PredictionServer();

  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// Enqueues a forecast request for \p sensor. The future is satisfied
  /// with the prediction, or with kResourceExhausted (queue full — set
  /// before this returns), kDeadlineExceeded (shed after \p deadline
  /// passed), kInvalidArgument (unknown sensor), or kFailedPrecondition
  /// (server shut down).
  std::future<Response> AsyncPredict(std::size_t sensor,
                                     Deadline deadline = kNoDeadline);

  /// Enqueues ingestion of \p sensor's next observed value. Same failure
  /// modes as AsyncPredict; `prediction` in the response is unused.
  std::future<Response> AsyncObserve(std::size_t sensor, double value,
                                     Deadline deadline = kNoDeadline);

  /// Blocking conveniences over the async calls.
  Result<predictors::Prediction> Predict(std::size_t sensor,
                                         Deadline deadline = kNoDeadline);
  Status Observe(std::size_t sensor, double value,
                 Deadline deadline = kNoDeadline);

  /// Attaches a tiered state store (store::TieredStateStore) that takes
  /// over engine residency for this fleet. Call once, before issuing
  /// traffic. Shard workers then Pin each distinct sensor of a batch
  /// inline at its first engine touch, so rehydration cost lands in the
  /// dedicated `rehydrate` stage of the latency taxonomy, not hidden
  /// inside batch_form. The
  /// byte budget is swept at each batch boundary. A request whose sensor
  /// fails to rehydrate (e.g. the store.rehydrate_read_short fault) is
  /// answered with that Status; the cold state stays intact and the next
  /// batch retries. The store must outlive the server.
  Status AttachStore(store::TieredStateStore* store);

  /// Exports every engine's state, one snapshot per sensor in sensor
  /// order. Each shard snapshots its engines at a batch boundary, so
  /// every per-engine snapshot is consistent (no mid-request state);
  /// across shards the cut is not a single global instant. Concurrent
  /// traffic keeps flowing on other shards while one shard snapshots.
  Result<std::vector<core::EngineSnapshot>> Snapshot();

  /// Snapshot() + Checkpoint::Save. The quiescing snapshot runs inline;
  /// serialization and file IO are offloaded to the process thread pool
  /// (ThreadPool::Submit), so shards resume serving while bytes hit disk.
  std::future<Status> AsyncSaveCheckpoint(std::string path);
  /// Blocking AsyncSaveCheckpoint.
  Status SaveCheckpoint(const std::string& path);

  /// Stops accepting new requests, answers everything already queued,
  /// and joins the shard workers. Idempotent.
  void Shutdown();

  std::size_t num_sensors() const { return manager_.num_sensors(); }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Direct engine access for tests and post-shutdown inspection. Only
  /// safe while no shard worker is running requests for this engine
  /// (i.e. after Shutdown, or for engines receiving no traffic).
  const core::SensorEngine& engine(std::size_t i) const {
    return manager_.engine(i);
  }

 private:
  struct Request {
    enum class Kind { kPredict, kObserve, kSnapshot };
    Kind kind = Kind::kPredict;
    std::size_t sensor = 0;
    double value = 0.0;
    Deadline deadline = kNoDeadline;
    Clock::time_point enqueued_at;
    /// Request-scoped trace context (null for snapshot barriers): minted
    /// at admission, rides the queue to the shard worker, and links every
    /// span the request produces — on the caller, the worker, and the
    /// thread-pool fan-out — under one trace id while accumulating the
    /// per-stage latency attribution.
    std::shared_ptr<obs::RequestContext> ctx;
    std::promise<Response> promise;
    /// Set only for kSnapshot: receives (sensor, snapshot) pairs of the
    /// shard's engines.
    std::shared_ptr<
        std::promise<std::vector<std::pair<std::size_t, core::EngineSnapshot>>>>
        snapshot_promise;
  };

  /// One producer thread's private SPSC lane into one shard.
  struct Lane {
    explicit Lane(std::size_t capacity) : ring(capacity) {}
    SpscRing<Request> ring;
  };

  /// Dedicated-lane slots per shard. Producer threads beyond this fall
  /// back to the mutex-guarded overflow deque (correctness path only).
  static constexpr int kMaxLanes = 32;

  struct Shard {
    int index = 0;
    std::vector<std::size_t> sensors;  ///< engine indices owned

    // Data plane: one lock-free SPSC lane per producer thread, created
    // lazily by its owner and published with a release store so the
    // worker's scan needs no lock. Each ring is sized >= queue_capacity,
    // so a successful `depth` reservation can never meet a full ring.
    std::array<std::atomic<Lane*>, kMaxLanes> lanes{};
    std::mutex overflow_mu;
    std::deque<Request> overflow;
    std::atomic<std::size_t> overflow_size{0};

    /// Admitted-but-unclaimed requests across all lanes; the admission
    /// reservation against queue_capacity.
    std::atomic<std::size_t> depth{0};
    /// Producers inside Enqueue between their running_ check and the
    /// completed push; the shutdown drain waits for 0 before the final
    /// sweep so every accepted request is answered exactly once.
    std::atomic<int> enqueuing{0};
    std::atomic<bool> stop{false};

    // Control plane: snapshot barriers are rare and must not be starved
    // by data-plane load, so they bypass the capacity check on their own
    // tiny mutex-guarded queue.
    std::mutex control_mu;
    std::deque<Request> control;
    std::atomic<int> control_size{0};

    // Worker parking: steady state is lock-free; the worker only takes
    // wake_mu when the shard went idle, and producers only touch it when
    // they observe `sleeping`.
    std::mutex wake_mu;
    std::condition_variable wake_cv;
    std::atomic<bool> sleeping{false};

    std::thread worker;

    /// Adaptive micro-batch size (worker-owned; see UpdateBatchTarget).
    std::size_t batch_target = 1;

    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* batch_target_gauge = nullptr;
    obs::Histogram* latency = nullptr;
    /// Per-shard cumulative owner-clock seconds by stage
    /// (`serve.shard<i>.stage.<name>_seconds_total`), fed by FinishRequest.
    obs::Gauge* stage_seconds[obs::kNumStages] = {};

    ~Shard() {
      for (auto& lane : lanes) delete lane.load(std::memory_order_relaxed);
    }
  };

  using PredictCache = std::unordered_map<std::size_t, Response>;

  PredictionServer(core::MultiSensorManager manager,
                   const ServerOptions& options);

  std::future<Response> Enqueue(Request req);
  /// The calling thread's dedicated lane into \p shard (created on first
  /// use); nullptr when all kMaxLanes slots are taken (overflow path).
  Lane* ProducerLane(Shard& shard);
  void WakeWorker(Shard& shard);
  void Park(Shard* shard);
  void ShardLoop(Shard* shard);
  /// Pops up to \p limit requests from the lanes (and overflow) into
  /// \p batch, merged by enqueue time (near-FIFO), decrementing the
  /// depth reservation at claim time.
  std::size_t ClaimBatch(Shard* shard, std::vector<Request>* batch,
                         std::size_t limit);
  void DrainControl(Shard* shard);
  /// \p claim_us: Tracer::NowMicros() at the instant the batch was claimed
  /// from the lanes — the boundary between queue_wait and batch_form.
  /// Returns the number of deadline-shed requests (adaptive-batch signal).
  std::size_t ProcessBatch(Shard* shard, std::vector<Request>* batch,
                           std::int64_t claim_us);
  /// Handles the maximal Predict segment starting at \p begin; returns
  /// the index one past the segment. \p pinned / \p pin_failed carry the
  /// batch's residency state (sensors pinned so far, and sensors whose
  /// pin failed mapped to the failure Status — their requests are
  /// answered with it instead of touching the engine); the segment's
  /// lazy pins are merged back into both.
  std::size_t ExecutePredictSegment(
      Shard* shard, std::vector<Request>* batch, std::size_t begin,
      std::int64_t claim_us, PredictCache* cache, std::size_t* sheds,
      store::TieredStateStore* store, std::vector<std::size_t>* pinned,
      std::unordered_map<std::size_t, Status>* pin_failed);
  /// Runs one engine pass per sensor of \p sensors into \p results,
  /// pinning any sensor not yet resident (outcomes merged into
  /// \p pinned / \p pin_failed): every sensor's BeginPredict, one fused
  /// gram launch for all of them, then every sensor's FinishPredict —
  /// bitwise-identical to a sequential Predict() per sensor.
  void ExecutePredictFleet(const std::vector<std::size_t>& sensors,
                           std::unordered_map<std::size_t, Response>* results,
                           store::TieredStateStore* store,
                           std::vector<std::size_t>* pinned,
                           std::unordered_map<std::size_t, Status>* pin_failed);
  void Respond(Shard* shard, Request* req, Response response);
  void UpdateBatchTarget(Shard* shard, std::size_t backlog, std::size_t sheds);
  /// Answers one snapshot barrier: store-aware (cold sensors decode from
  /// their spill segment) when a store is attached, direct otherwise.
  void ServeSnapshotBarrier(Shard* shard, Request* req);

  core::MultiSensorManager manager_;
  ServerOptions options_;
  std::size_t ring_capacity_ = 0;
  /// Process-unique id of this server instance; keys the thread-local
  /// producer-slot table (an address-reuse-proof lane identity).
  std::uint64_t epoch_ = 0;
  std::atomic<int> next_lane_slot_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{true};
  /// Residency owner when attached (not owned; outlives the server).
  std::atomic<store::TieredStateStore*> store_{nullptr};
};

}  // namespace serve
}  // namespace smiler

#endif  // SMILER_SERVE_SERVER_H_
