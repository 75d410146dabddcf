#include "serve/server.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "chaos/fault.h"
#include "common/thread_pool.h"
#include "gp/kernel.h"
#include "obs/stats_server.h"
#include "obs/trace.h"
#include "serve/checkpoint.h"
#include "store/tiered_store.h"

namespace smiler {
namespace serve {

namespace {

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

obs::Counter& RequestsCounter() {
  static obs::Counter& c = obs::Registry::Global().GetCounter("serve.requests");
  return c;
}
obs::Counter& CompletedCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("serve.completed");
  return c;
}
obs::Counter& RejectedCounter() {
  static obs::Counter& c = obs::Registry::Global().GetCounter("serve.rejected");
  return c;
}
obs::Counter& DeadlineExpiredCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("serve.deadline_expired");
  return c;
}
obs::Counter& BatchesCounter() {
  static obs::Counter& c = obs::Registry::Global().GetCounter("serve.batches");
  return c;
}
obs::Counter& CoalescedCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("serve.batch.coalesced_predicts");
  return c;
}
obs::Counter& GramLaunchesCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("serve.batch.gram_launches");
  return c;
}
obs::Histogram& BatchSizeHistogram() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("serve.batch_size");
  return h;
}
obs::Histogram& LatencyHistogram() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("serve.latency_seconds");
  return h;
}

/// Initial / idle-floor micro-batch target: big enough to amortize the
/// fused gram launch, small enough to keep tail latency sane at low load.
constexpr std::size_t kInitialBatchTarget = 32;

/// Distinguishes server instances in the thread-local producer-slot table
/// (a destroyed server's address can be reused; its epoch cannot).
std::atomic<std::uint64_t> g_next_server_epoch{1};

}  // namespace

Result<std::unique_ptr<PredictionServer>> PredictionServer::Create(
    core::MultiSensorManager manager, const ServerOptions& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.queue_capacity < 1) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  ServerOptions opts = options;
  opts.num_shards = static_cast<int>(
      std::min<std::size_t>(opts.num_shards, manager.num_sensors()));
  // Live snapshot endpoint (SMILER_STATS_PORT): a serving process is the
  // main thing worth polling mid-run, so the server entry point arms it.
  obs::StatsServer::StartFromEnvOnce();
  return std::unique_ptr<PredictionServer>(
      new PredictionServer(std::move(manager), opts));
}

PredictionServer::PredictionServer(core::MultiSensorManager manager,
                                   const ServerOptions& options)
    : manager_(std::move(manager)),
      options_(options),
      ring_capacity_(options.queue_capacity),
      epoch_(g_next_server_epoch.fetch_add(1, std::memory_order_relaxed)) {
  shards_.reserve(options_.num_shards);
  for (int s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    const std::string prefix = "serve.shard" + std::to_string(s);
    shard->queue_depth =
        &obs::Registry::Global().GetGauge(prefix + ".queue_depth");
    shard->batch_target_gauge =
        &obs::Registry::Global().GetGauge(prefix + ".batch_target");
    shard->latency =
        &obs::Registry::Global().GetHistogram(prefix + ".latency_seconds");
    for (int st = 0; st < obs::kNumStages; ++st) {
      shard->stage_seconds[st] = &obs::Registry::Global().GetGauge(
          prefix + ".stage." + obs::StageName(static_cast<obs::Stage>(st)) +
          "_seconds_total");
    }
    shard->batch_target =
        std::min<std::size_t>(options_.queue_capacity, kInitialBatchTarget);
    shard->batch_target_gauge->Set(static_cast<double>(shard->batch_target));
    shards_.push_back(std::move(shard));
  }
  for (std::size_t i = 0; i < manager_.num_sensors(); ++i) {
    shards_[i % shards_.size()]->sensors.push_back(i);
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { ShardLoop(s); });
  }
}

PredictionServer::~PredictionServer() { Shutdown(); }

PredictionServer::Lane* PredictionServer::ProducerLane(Shard& shard) {
  // One lane slot per (producer thread, server instance), assigned on the
  // thread's first enqueue and reused for every shard of that server: the
  // thread is the only producer of lanes[slot] in EVERY shard, which is
  // what makes the rings single-producer.
  thread_local std::unordered_map<std::uint64_t, int> t_slots;
  auto [it, inserted] = t_slots.try_emplace(epoch_, 0);
  if (inserted) {
    const int slot = next_lane_slot_.fetch_add(1, std::memory_order_relaxed);
    it->second = slot < kMaxLanes ? slot : -1;
  }
  const int slot = it->second;
  if (slot < 0) return nullptr;  // all dedicated slots taken: overflow path
  Lane* lane = shard.lanes[slot].load(std::memory_order_acquire);
  if (lane == nullptr) {
    // Only this thread ever creates lanes[slot]; the release store
    // publishes the constructed ring to the worker's acquire scan.
    lane = new Lane(ring_capacity_);
    shard.lanes[slot].store(lane, std::memory_order_release);
  }
  return lane;
}

void PredictionServer::WakeWorker(Shard& shard) {
  // Dekker pairing with Park(): our push is ordered before this fence;
  // the worker stores `sleeping` then fences before re-checking for work.
  // In every interleaving either the worker's re-check sees the push, or
  // this load sees `sleeping` and we notify under the lock.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (shard.sleeping.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(shard.wake_mu);
    shard.wake_cv.notify_one();
  }
}

void PredictionServer::Park(Shard* shard) {
  std::unique_lock<std::mutex> lock(shard->wake_mu);
  shard->sleeping.store(true, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  auto has_work = [shard] {
    return shard->stop.load(std::memory_order_acquire) ||
           shard->depth.load(std::memory_order_acquire) > 0 ||
           shard->control_size.load(std::memory_order_acquire) > 0;
  };
  if (!has_work()) {
    // Liveness comes from the fence pairing with WakeWorker; the timeout
    // is belt-and-suspenders, not load-bearing.
    shard->wake_cv.wait_for(lock, std::chrono::milliseconds(1), has_work);
  }
  shard->sleeping.store(false, std::memory_order_relaxed);
}

std::future<Response> PredictionServer::Enqueue(Request req) {
  req.enqueued_at = Clock::now();
  std::future<Response> future = req.promise.get_future();
  if (req.sensor >= manager_.num_sensors()) {
    req.promise.set_value(
        {Status::InvalidArgument("unknown sensor"), predictors::Prediction{}});
    return future;
  }
  Shard& shard = *shards_[req.sensor % shards_.size()];
  // Mint the request's trace context at admission (snapshot barriers are
  // control plane, not attributed) and bind it to the caller for the
  // enqueue span, so the caller thread appears in the request's span tree.
  if (req.kind != Request::Kind::kSnapshot) {
    req.ctx = obs::RequestContext::Mint(shard.index);
  }
  obs::RequestScope trace_scope(req.ctx, /*owner=*/false);
  SMILER_TRACE_SPAN("serve.enqueue");
  // Announce this producer BEFORE the shutdown check (seq_cst on both
  // sides): the worker's drain sees either stop-aware producers that
  // rejected themselves, or a nonzero `enqueuing` it must wait out — so a
  // request that passed this check is always swept before the worker
  // exits, and every accepted request is answered exactly once.
  shard.enqueuing.fetch_add(1, std::memory_order_seq_cst);
  if (!running_.load(std::memory_order_seq_cst) ||
      shard.stop.load(std::memory_order_seq_cst)) {
    shard.enqueuing.fetch_sub(1, std::memory_order_release);
    req.promise.set_value({Status::FailedPrecondition("server is shut down"),
                           predictors::Prediction{}});
    return future;
  }
  if (req.kind == Request::Kind::kSnapshot) {
    // Control plane: rare barriers bypass the data-plane capacity check —
    // they must not be starved by load — on their own mutex-guarded queue
    // (`control_size` mirrors the deque size under the same lock).
    {
      std::lock_guard<std::mutex> lock(shard.control_mu);
      shard.control.push_back(std::move(req));
      shard.control_size.fetch_add(1, std::memory_order_release);
    }
    RequestsCounter().Increment();
    shard.enqueuing.fetch_sub(1, std::memory_order_release);
    WakeWorker(shard);
    return future;
  }
  // Admission control: reserve a slot against the shard-wide capacity
  // with one fetch_add — a full shard rejects immediately rather than
  // blocking the client or buffering without bound. The chaos point
  // shares this branch so an injected rejection is indistinguishable
  // from a real full-queue one (same status, same counter).
  const std::size_t prior =
      shard.depth.fetch_add(1, std::memory_order_acq_rel);
  if (prior >= options_.queue_capacity ||
      SMILER_FAULT_TRIGGERED("serve.enqueue")) {
    shard.depth.fetch_sub(1, std::memory_order_release);
    shard.enqueuing.fetch_sub(1, std::memory_order_release);
    RejectedCounter().Increment();
    req.promise.set_value({Status::ResourceExhausted("request queue is full"),
                           predictors::Prediction{}});
    return future;
  }
  // A successful reservation guarantees ring room (each lane is sized >=
  // queue_capacity and admitted-but-unclaimed requests never exceed the
  // capacity), so TryPush failing is a broken-invariant guard — reachable
  // in practice only through the injected ring-full fault below.
  bool pushed = false;
  if (!SMILER_FAULT_TRIGGERED("serve.enqueue_ring")) {
    if (Lane* lane = ProducerLane(shard)) {
      pushed = lane->ring.TryPush(std::move(req));
    } else {
      std::lock_guard<std::mutex> lock(shard.overflow_mu);
      shard.overflow.push_back(std::move(req));
      shard.overflow_size.fetch_add(1, std::memory_order_release);
      pushed = true;
    }
  }
  if (!pushed) {
    shard.depth.fetch_sub(1, std::memory_order_release);
    shard.enqueuing.fetch_sub(1, std::memory_order_release);
    RejectedCounter().Increment();
    req.promise.set_value({Status::ResourceExhausted("request queue is full"),
                           predictors::Prediction{}});
    return future;
  }
  // Gauge protocol: +1 at admission here, -claimed at ClaimBatch — the
  // gauge tracks admitted-but-unclaimed depth and conserves to exactly 0
  // after a drain (the chaos harness asserts that), instead of counting
  // in-processing requests until their response like the old mutex queue.
  shard.queue_depth->Add(1.0);
  RequestsCounter().Increment();
  shard.enqueuing.fetch_sub(1, std::memory_order_release);
  WakeWorker(shard);
  return future;
}

std::future<Response> PredictionServer::AsyncPredict(std::size_t sensor,
                                                     Deadline deadline) {
  Request req;
  req.kind = Request::Kind::kPredict;
  req.sensor = sensor;
  req.deadline = deadline;
  return Enqueue(std::move(req));
}

std::future<Response> PredictionServer::AsyncObserve(std::size_t sensor,
                                                     double value,
                                                     Deadline deadline) {
  Request req;
  req.kind = Request::Kind::kObserve;
  req.sensor = sensor;
  req.value = value;
  req.deadline = deadline;
  return Enqueue(std::move(req));
}

Result<predictors::Prediction> PredictionServer::Predict(std::size_t sensor,
                                                         Deadline deadline) {
  Response r = AsyncPredict(sensor, deadline).get();
  SMILER_RETURN_NOT_OK(r.status);
  return r.prediction;
}

Status PredictionServer::Observe(std::size_t sensor, double value,
                                 Deadline deadline) {
  return AsyncObserve(sensor, value, deadline).get().status;
}

Status PredictionServer::AttachStore(store::TieredStateStore* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("store must be non-null");
  }
  if (store_.load(std::memory_order_acquire) != nullptr) {
    return Status::FailedPrecondition("a store is already attached");
  }
  // The fleet is fully resident before any store exists, so sensor 0's
  // engine names the shared device rehydrations charge against.
  SMILER_RETURN_NOT_OK(store->Bind(&manager_, manager_.engine(0).device()));
  store_.store(store, std::memory_order_release);
  return Status::OK();
}

std::size_t PredictionServer::ClaimBatch(Shard* shard,
                                         std::vector<Request>* batch,
                                         std::size_t limit) {
  const std::size_t base = batch->size();
  std::size_t claimed = 0;
  bool progress = true;
  while (claimed < limit && progress) {
    progress = false;
    for (auto& slot : shard->lanes) {
      if (claimed >= limit) break;
      Lane* lane = slot.load(std::memory_order_acquire);
      if (lane == nullptr) continue;
      Request req;
      if (lane->ring.TryPop(&req)) {
        batch->push_back(std::move(req));
        ++claimed;
        progress = true;
      }
    }
    if (claimed < limit &&
        shard->overflow_size.load(std::memory_order_acquire) > 0) {
      std::lock_guard<std::mutex> lock(shard->overflow_mu);
      while (claimed < limit && !shard->overflow.empty()) {
        batch->push_back(std::move(shard->overflow.front()));
        shard->overflow.pop_front();
        shard->overflow_size.fetch_sub(1, std::memory_order_release);
        ++claimed;
        progress = true;
      }
    }
  }
  if (claimed > 0) {
    // Release the capacity reservations only now, at claim: the gauge and
    // `depth` both track admitted-but-unclaimed requests.
    shard->depth.fetch_sub(claimed, std::memory_order_acq_rel);
    shard->queue_depth->Add(-static_cast<double>(claimed));
    // Near-FIFO across lanes: merge by enqueue time. stable_sort keeps
    // same-instant requests in lane-scan order, so the merged order is
    // deterministic given the per-lane contents.
    std::stable_sort(batch->begin() + static_cast<std::ptrdiff_t>(base),
                     batch->end(), [](const Request& a, const Request& b) {
                       return a.enqueued_at < b.enqueued_at;
                     });
  }
  return claimed;
}

void PredictionServer::DrainControl(Shard* shard) {
  if (shard->control_size.load(std::memory_order_acquire) == 0) return;
  std::deque<Request> barriers;
  {
    std::lock_guard<std::mutex> lock(shard->control_mu);
    barriers.swap(shard->control);
    shard->control_size.store(0, std::memory_order_release);
  }
  for (Request& req : barriers) {
    ServeSnapshotBarrier(shard, &req);
  }
}

void PredictionServer::ServeSnapshotBarrier(Shard* shard, Request* req) {
  store::TieredStateStore* store = store_.load(std::memory_order_acquire);
  std::vector<std::pair<std::size_t, core::EngineSnapshot>> snaps;
  snaps.reserve(shard->sensors.size());
  Status st = Status::OK();
  for (std::size_t sensor : shard->sensors) {
    if (store != nullptr) {
      // Store-aware barrier: a cold sensor's state comes from its spill
      // segment — the checkpoint covers the whole fleet without forcing
      // every evicted engine back into memory.
      auto snap = store->StableSnapshot(sensor);
      if (!snap.ok()) {
        st = snap.status();
        break;
      }
      snaps.emplace_back(sensor, std::move(*snap));
    } else {
      snaps.emplace_back(sensor, manager_.engine(sensor).Snapshot());
    }
  }
  if (req->snapshot_promise) {
    req->snapshot_promise->set_value(std::move(snaps));
  }
  Respond(shard, req, {std::move(st), predictors::Prediction{}});
}

void PredictionServer::ShardLoop(Shard* shard) {
  // Self-register with the trace collector: shard workers are spawned
  // after tracing may already be running (SMILER_TRACE at startup), and
  // must still show up — named — in the exported trace.
  obs::Tracer::Global().RegisterCurrentThread(
      "serve-shard-" + std::to_string(shard->index));
  std::vector<Request> batch;
  for (;;) {
    // Control barriers run at batch boundaries: every engine is quiescent
    // here, so per-engine snapshots are consistent by construction.
    DrainControl(shard);
    batch.clear();
    std::size_t claimed = ClaimBatch(shard, &batch, shard->batch_target);
    if (claimed == 0) {
      if (shard->stop.load(std::memory_order_acquire)) {
        // Drain protocol: wait out producers that passed their shutdown
        // check (`enqueuing` > 0), then one final unlimited sweep. After
        // `enqueuing` reads 0 every accepted push is visible (release
        // decrement / acquire load), so nothing is left behind.
        if (shard->enqueuing.load(std::memory_order_seq_cst) != 0) {
          std::this_thread::yield();
          continue;
        }
        DrainControl(shard);
        claimed = ClaimBatch(shard, &batch,
                             std::numeric_limits<std::size_t>::max());
        if (claimed == 0) return;
      } else {
        Park(shard);
        continue;
      }
    }
    const std::int64_t claim_us = obs::Tracer::NowMicros();
    BatchesCounter().Increment();
    BatchSizeHistogram().Observe(static_cast<double>(batch.size()));
    const std::size_t sheds = ProcessBatch(shard, &batch, claim_us);
    UpdateBatchTarget(shard, shard->depth.load(std::memory_order_acquire),
                      sheds);
  }
}

namespace {

/// Pins \p sensor at its first engine touch of the batch, attributing the
/// IO to the rehydrate stage; records the outcome in \p pinned /
/// \p pin_failed. Returns OK when the engine is resident (or no store is
/// attached), else the Status of this batch's failed pin.
Status EnsureResident(store::TieredStateStore* store, std::size_t sensor,
                      std::vector<std::size_t>* pinned,
                      std::unordered_map<std::size_t, Status>* pin_failed) {
  if (store == nullptr) return Status::OK();
  auto failed = pin_failed->find(sensor);
  if (failed != pin_failed->end()) return failed->second;
  if (std::find(pinned->begin(), pinned->end(), sensor) != pinned->end()) {
    return Status::OK();
  }
  Status st;
  {
    obs::StageScope rehydrate(obs::Stage::kRehydrate);
    SMILER_TRACE_SPAN("serve.rehydrate");
    st = store->Pin(sensor);
  }
  if (st.ok()) {
    pinned->push_back(sensor);
  } else {
    pin_failed->emplace(sensor, st);
  }
  return st;
}

}  // namespace

std::size_t PredictionServer::ProcessBatch(Shard* shard,
                                           std::vector<Request>* batch,
                                           std::int64_t claim_us) {
  // Coalescing cache: sensor -> response of the batch's previous Predict
  // of that sensor. Valid only while the engine state is unchanged, so an
  // Observe for the sensor invalidates its entry. Every co-resident
  // client of a sensor shares one engine pass (one set of device
  // launches).
  PredictCache predict_cache;
  std::size_t sheds = 0;
  // Residency: each distinct data-plane sensor is pinned inline at its
  // FIRST engine touch of the batch (EnsureResident), so no request below
  // ever touches a non-resident engine, and rehydration cost lands in the
  // dedicated `rehydrate` stage of the latency taxonomy instead of hiding
  // inside batch_form. A failed pin (e.g. the store.rehydrate_read_short
  // fault) answers that sensor's requests with the Status; the cold state
  // is intact and the next batch retries.
  store::TieredStateStore* store = store_.load(std::memory_order_acquire);
  std::vector<std::size_t> pinned;
  std::unordered_map<std::size_t, Status> pin_failed;
  for (std::size_t i = 0; i < batch->size();) {
    Request& req = (*batch)[i];
    if (req.kind == Request::Kind::kPredict) {
      i = ExecutePredictSegment(shard, batch, i, claim_us, &predict_cache,
                                &sheds, store, &pinned, &pin_failed);
      continue;
    }
    if (req.kind == Request::Kind::kSnapshot) {
      // Defensive: barriers travel on the control queue, but one landing
      // here anyway gets identical semantics.
      ServeSnapshotBarrier(shard, &req);
      ++i;
      continue;
    }
    // kObserve. Stage attribution for the cross-thread interval the
    // worker cannot scope: queue_wait is mint → batch claim, batch_form
    // is claim → this request's turn in the batch — which honestly
    // includes the processing time of the requests ahead of it.
    if (req.ctx != nullptr) {
      const std::int64_t start_us = obs::Tracer::NowMicros();
      req.ctx->Credit(obs::Stage::kQueueWait, claim_us - req.ctx->mint_us());
      req.ctx->Credit(obs::Stage::kBatchForm, start_us - claim_us);
    }
    // The shard worker is the request's owner: it drives the exclusive
    // stage clock that tiles the rest of the request.
    obs::RequestScope trace_scope(req.ctx, /*owner=*/true);
    // Shed expired requests before paying for any engine work (or for
    // rehydration they will not use).
    if (req.deadline != kNoDeadline && Clock::now() > req.deadline) {
      ++sheds;
      DeadlineExpiredCounter().Increment();
      Respond(shard, &req,
              {Status::DeadlineExceeded("deadline expired before execution"),
               predictors::Prediction{}});
      ++i;
      continue;
    }
    Status st = EnsureResident(store, req.sensor, &pinned, &pin_failed);
    if (st.ok()) {
      predict_cache.erase(req.sensor);
      obs::StageScope forecast(obs::Stage::kForecast);
      SMILER_TRACE_SPAN("serve.observe");
      st = manager_.engine(req.sensor).Observe(req.value);
    }
    Respond(shard, &req, {std::move(st), predictors::Prediction{}});
    ++i;
  }
  for (std::size_t sensor : pinned) store->Unpin(sensor);
  if (store != nullptr) {
    // Budget sweep at the batch boundary: every pin is released and the
    // shard's engines are quiescent. A failed spill leaves the fleet
    // over budget but consistent (store.evict_failures counts it), so
    // the status is advisory here — serving continues either way.
    (void)store->EnforceBudget();
  }
  return sheds;
}

std::size_t PredictionServer::ExecutePredictSegment(
    Shard* shard, std::vector<Request>* batch, std::size_t begin,
    std::int64_t claim_us, PredictCache* cache, std::size_t* sheds,
    store::TieredStateStore* store, std::vector<std::size_t>* pinned,
    std::unordered_map<std::size_t, Status>* pin_failed) {
  // Maximal run of Predict requests.
  std::size_t end = begin;
  while (end < batch->size() &&
         (*batch)[end].kind == Request::Kind::kPredict) {
    ++end;
  }
  // Pre-scan: the distinct sensors that actually need an engine pass — at
  // least one not-yet-expired request and no coalesced response cached.
  // Already-shed requests must not trigger engine work (a Predict has the
  // side effect of recording a pending forecast).
  const Clock::time_point scan_now = Clock::now();
  std::vector<std::size_t> fresh;
  for (std::size_t j = begin; j < end; ++j) {
    const Request& r = (*batch)[j];
    if (r.deadline != kNoDeadline && scan_now > r.deadline) continue;
    if (pin_failed->count(r.sensor) != 0) continue;
    if (cache->count(r.sensor) != 0) continue;
    if (std::find(fresh.begin(), fresh.end(), r.sensor) == fresh.end()) {
      fresh.push_back(r.sensor);
    }
  }
  bool computed = fresh.empty();
  std::unordered_map<std::size_t, Response> results;
  for (std::size_t j = begin; j < end; ++j) {
    Request& req = (*batch)[j];
    if (req.ctx != nullptr) {
      const std::int64_t start_us = obs::Tracer::NowMicros();
      req.ctx->Credit(obs::Stage::kQueueWait, claim_us - req.ctx->mint_us());
      req.ctx->Credit(obs::Stage::kBatchForm, start_us - claim_us);
    }
    obs::RequestScope trace_scope(req.ctx, /*owner=*/true);
    if (req.deadline != kNoDeadline && Clock::now() > req.deadline) {
      ++*sheds;
      DeadlineExpiredCounter().Increment();
      Respond(shard, &req,
              {Status::DeadlineExceeded("deadline expired before execution"),
               predictors::Prediction{}});
      continue;
    }
    auto failed = pin_failed->find(req.sensor);
    if (failed != pin_failed->end()) {
      // Residency pin failed (transient rehydrate fault): answer with the
      // pin Status without touching the non-resident engine.
      Respond(shard, &req, {failed->second, predictors::Prediction{}});
      continue;
    }
    if (!computed) {
      // The whole segment's engine passes run here, under the FIRST live
      // request's owner scope: later requests' share of the fused work
      // lands in their batch_form stage — the same "honestly includes
      // the processing time of requests ahead" attribution as an
      // Observe, so stage sums still tile end-to-end latency.
      computed = true;
      obs::StageScope forecast(obs::Stage::kForecast);
      SMILER_TRACE_SPAN("serve.predict");
      ExecutePredictFleet(fresh, &results, store, pinned, pin_failed);
    }
    auto cached = cache->find(req.sensor);
    if (cached != cache->end()) {
      CoalescedCounter().Increment();
      Respond(shard, &req, cached->second);
      continue;
    }
    auto it = results.find(req.sensor);
    if (it == results.end()) {
      // Unreachable: a live, uncached request whose pin has not failed
      // was live, uncached and unfailed at the pre-scan too (deadlines
      // only expire; the cache and pin_failed only grow within a
      // segment), so its sensor is in `fresh` and the fleet wrote its
      // result. Never answer with a default-OK response.
      Respond(shard, &req,
              {Status::Internal("predict fleet produced no result"),
               predictors::Prediction{}});
      continue;
    }
    // The sensor's later requests in this segment hit this cache entry.
    (*cache)[req.sensor] = it->second;
    Respond(shard, &req, std::move(it->second));
  }
  return end;
}

void PredictionServer::ExecutePredictFleet(
    const std::vector<std::size_t>& sensors,
    std::unordered_map<std::size_t, Response>* results,
    store::TieredStateStore* store, std::vector<std::size_t>* pinned,
    std::unordered_map<std::size_t, Status>* pin_failed) {
  // Phases, for one sensor as for many: every sensor runs its Search Step
  // before the fused Gram launch, and every Gram is in before any sensor
  // fits its cells and combines.
  static obs::Counter& gram_columns =
      obs::Registry::Global().GetCounter("engine.gram_columns");
  struct Begun {
    std::size_t sensor;
    core::PendingPredict pending;
  };
  std::vector<Begun> begun;
  begun.reserve(sensors.size());
  for (std::size_t s : sensors) {
    const Status resident = EnsureResident(store, s, pinned, pin_failed);
    if (!resident.ok()) {
      (*results)[s] = {resident, predictors::Prediction{}};
      continue;
    }
    auto pending = manager_.engine(s).BeginPredict();
    if (!pending.ok()) {
      (*results)[s] = {pending.status(), predictors::Prediction{}};
      continue;
    }
    begun.push_back(Begun{s, std::move(*pending)});
  }
  if (begun.empty()) return;
  // Fuse every engine's pending Gram columns into ONE device launch: this
  // is the cross-sensor batching win — a micro-batch of N sensors pays
  // one "gp.gram_batch" launch instead of N x columns "gp.gram" ones.
  std::vector<gp::GramBatchJob> jobs;
  for (Begun& b : begun) {
    for (core::PendingPredict::GramColumn& column : b.pending.columns) {
      if (column.x.rows() == 0) continue;
      jobs.push_back(gp::GramBatchJob{&column.x, &column.gram});
    }
  }
  if (!jobs.empty()) {
    obs::StageScope gram_stage(obs::Stage::kGram);
    SMILER_TRACE_SPAN("serve.gram_batch");
    const auto gram_start = Clock::now();
    simgpu::Device* device = manager_.engine(begun.front().sensor).device();
    const Status st = gp::PairwiseSquaredDistancesOnDeviceBatch(device, jobs);
    if (st.ok()) {
      GramLaunchesCounter().Increment();
    } else {
      // Same degradation contract as the engine's own Grams: a failed
      // launch (e.g. chaos injection) falls back to the host function per
      // job, which is bitwise-identical to the device result.
      for (gp::GramBatchJob& job : jobs) {
        *job.out = gp::PairwiseSquaredDistances(*job.x);
      }
    }
    gram_columns.Increment(jobs.size());
    // Attribute the fused launch to the engines' gram clocks evenly so
    // engine.predict_seconds stays comparable with a solo Predict().
    const double gram_share =
        Seconds(Clock::now() - gram_start) / static_cast<double>(begun.size());
    for (Begun& b : begun) b.pending.gram_seconds += gram_share;
  }
  for (Begun& b : begun) {
    b.pending.grams_ready = true;
    auto pred = manager_.engine(b.sensor).FinishPredict(std::move(b.pending));
    if (pred.ok()) {
      (*results)[b.sensor] = {Status::OK(), *pred};
    } else {
      (*results)[b.sensor] = {pred.status(), predictors::Prediction{}};
    }
  }
}

void PredictionServer::UpdateBatchTarget(Shard* shard, std::size_t backlog,
                                         std::size_t sheds) {
  static obs::Gauge& pool_depth =
      obs::Registry::Global().GetGauge("threadpool.queue_depth");
  const std::size_t initial =
      std::min<std::size_t>(options_.queue_capacity, kInitialBatchTarget);
  std::size_t target = shard->batch_target;
  if (sheds > 0) {
    // Deadline sheds mean batches are forming for longer than clients can
    // wait: shrink aggressively (below the idle floor if needed).
    target = std::max<std::size_t>(1, target / 2);
  } else if (backlog >= target) {
    // Backlog built up while we processed: bigger batches amortize more
    // launches — unless the device's thread pool is already congested
    // (PR 6 stage clock shows gram/cholesky dominating then), in which
    // case a bigger fan-in would only grow the convoy.
    const bool pool_congested =
        pool_depth.value() >
        2.0 * static_cast<double>(ThreadPool::Default().size());
    if (!pool_congested) {
      target = std::min(options_.queue_capacity, target * 2);
    }
  } else if (backlog < target / 4 && target > initial) {
    // Load receded: drift back toward the idle floor for tail latency.
    target = std::max(initial, target / 2);
  }
  if (target != shard->batch_target) {
    shard->batch_target = target;
    shard->batch_target_gauge->Set(static_cast<double>(target));
  }
}

void PredictionServer::Respond(Shard* shard, Request* req, Response response) {
  double latency = 0.0;
  {
    obs::StageScope publish(obs::Stage::kPublish);
    latency = Seconds(Clock::now() - req->enqueued_at);
    shard->latency->Observe(latency);
    LatencyHistogram().Observe(latency);
    // Every admitted request passes through here exactly once (success,
    // engine error, or deadline shed alike), so after a drain the counters
    // conserve: serve.requests == serve.completed. The queue-depth gauge
    // is NOT touched here — it is settled at claim time (see ClaimBatch),
    // so it conserves to 0 independently of response bookkeeping.
    CompletedCounter().Increment();
  }
  // Publish the attribution once the publish stage has closed, then
  // fulfil the promise (the exemplar is complete before the client can
  // observe the response).
  if (req->ctx != nullptr) {
    obs::FinishRequest(*req->ctx, latency, shard->stage_seconds);
  }
  req->promise.set_value(std::move(response));
}

Result<std::vector<core::EngineSnapshot>> PredictionServer::Snapshot() {
  using ShardSnaps = std::vector<std::pair<std::size_t, core::EngineSnapshot>>;
  std::vector<std::future<ShardSnaps>> futures;
  std::vector<std::future<Response>> acks;
  futures.reserve(shards_.size());
  acks.reserve(shards_.size());
  for (auto& shard : shards_) {
    Request req;
    req.kind = Request::Kind::kSnapshot;
    // Address the snapshot to the shard's first sensor so Enqueue routes
    // it there; the worker snapshots every engine the shard owns.
    req.sensor = shard->sensors.front();
    req.snapshot_promise = std::make_shared<std::promise<ShardSnaps>>();
    futures.push_back(req.snapshot_promise->get_future());
    acks.push_back(Enqueue(std::move(req)));
  }
  std::vector<core::EngineSnapshot> merged(manager_.num_sensors());
  for (std::size_t s = 0; s < futures.size(); ++s) {
    Response ack = acks[s].get();
    if (!ack.status.ok()) return ack.status;  // e.g. server shut down
    for (auto& [sensor, snap] : futures[s].get()) {
      merged[sensor] = std::move(snap);
    }
  }
  return merged;
}

std::future<Status> PredictionServer::AsyncSaveCheckpoint(std::string path) {
  auto promise = std::make_shared<std::promise<Status>>();
  std::future<Status> future = promise->get_future();
  auto snaps = Snapshot();
  if (!snaps.ok()) {
    promise->set_value(snaps.status());
    return future;
  }
  // The quiescing part is done; serialization and file IO happen off the
  // shard workers so serving resumes while bytes hit disk.
  ThreadPool::Default().Submit(
      [promise, path = std::move(path), snaps = std::move(*snaps)] {
        promise->set_value(Checkpoint::Save(path, snaps));
      });
  return future;
}

Status PredictionServer::SaveCheckpoint(const std::string& path) {
  return AsyncSaveCheckpoint(path).get();
}

void PredictionServer::Shutdown() {
  if (!running_.exchange(false, std::memory_order_seq_cst)) return;
  for (auto& shard : shards_) {
    shard->stop.store(true, std::memory_order_seq_cst);
    // Taking and dropping wake_mu pins any concurrent Park() either
    // before its predicate check (it will see stop) or inside the wait
    // (the notify reaches it): no lost shutdown wakeup.
    { std::lock_guard<std::mutex> lock(shard->wake_mu); }
    shard->wake_cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

}  // namespace serve
}  // namespace smiler
