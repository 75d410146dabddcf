#include "index/smiler_index.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <optional>
#include <queue>
#include <vector>

#include "common/math_utils.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "dtw/dtw.h"
#include "dtw/lower_bounds.h"
#include "index/csg.h"
#include "index/kselect.h"
#include "obs/obs.h"

namespace smiler {
namespace index {

namespace {

/// Lock-free monotone tightening of a shared double threshold.
inline void AtomicMinDouble(std::atomic<double>* target, double value) {
  double cur = target->load(std::memory_order_relaxed);
  while (value < cur &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

const char* LowerBoundModeName(LowerBoundMode mode) {
  switch (mode) {
    case LowerBoundMode::kLbeq:
      return "LBEQ";
    case LowerBoundMode::kLbec:
      return "LBEC";
    case LowerBoundMode::kLben:
      return "LBen";
  }
  return "UNKNOWN";
}

Result<SmilerIndex> SmilerIndex::Build(simgpu::Device* device,
                                       const ts::TimeSeries& history,
                                       const SmilerConfig& config) {
  if (device == nullptr) {
    return Status::InvalidArgument("device must not be null");
  }
  SMILER_RETURN_NOT_OK(config.Validate());
  const int d_max = config.MasterQueryLength();
  const long n = static_cast<long>(history.size());
  if (n < d_max + config.omega) {
    return Status::InvalidArgument(
        "history too short: need at least MasterQueryLength + omega points");
  }

  SmilerIndex idx;
  idx.cfg_ = config;
  idx.device_ = device;
  idx.series_ = history.values();
  idx.d_max_ = d_max;
  idx.S_ = NumSlidingWindows(d_max, config.omega);
  idx.R_ = n / config.omega;
  idx.head_ = 0;
  idx.env_c_ = dtw::ComputeEnvelope(idx.series_.data(), idx.series_.size(),
                                    config.rho);
  idx.RefreshMqEnvelope();
  idx.lb_.Init(idx.S_, idx.R_, config.omega);
  idx.prev_knn_.assign(config.elv.size(), {});

  // Window-level build: one block per sliding window computes that
  // window's whole posting list (Section 4.3.1). Both backends run the
  // same ComputeRow body over the same decomposition; the native path
  // just skips the per-block arena/timer machinery.
  SmilerIndex* self = &idx;
  const int n_rows = idx.S_;
  SMILER_RETURN_NOT_OK(device->Launch(
      "index.window_build", n_rows, config.omega,
      [self](simgpu::BlockContext& ctx) {
        self->ComputeRow(ctx.block_id, /*eq_only=*/false);
      },
      [self, n_rows](simgpu::NativeContext& nctx) {
        nctx.ParallelFor(static_cast<std::size_t>(n_rows), [self](std::size_t b) {
          self->ComputeRow(static_cast<int>(b), /*eq_only=*/false);
        });
      }));
  SMILER_RETURN_NOT_OK(idx.UpdateMemoryAccounting());
  return idx;
}

IndexSnapshot SmilerIndex::Snapshot() const {
  IndexSnapshot snap;
  snap.series = series_;
  snap.env_c_upper = env_c_.upper;
  snap.env_c_lower = env_c_.lower;
  snap.env_mq_upper = env_mq_.upper;
  snap.env_mq_lower = env_mq_.lower;
  snap.head = head_;
  snap.cols = R_;
  snap.arena_stride = lb_.stride();
  snap.arena = lb_.raw();
  snap.prev_knn = prev_knn_;
  return snap;
}

Result<SmilerIndex> SmilerIndex::Restore(simgpu::Device* device,
                                         const SmilerConfig& config,
                                         IndexSnapshot snapshot) {
  if (device == nullptr) {
    return Status::InvalidArgument("device must not be null");
  }
  SMILER_RETURN_NOT_OK(config.Validate());
  const int d_max = config.MasterQueryLength();
  const long n = static_cast<long>(snapshot.series.size());
  if (n < d_max + config.omega) {
    return Status::InvalidArgument(
        "snapshot series too short for the configuration");
  }
  const int S = NumSlidingWindows(d_max, config.omega);
  const std::size_t un = static_cast<std::size_t>(n);
  if (snapshot.env_c_upper.size() != un || snapshot.env_c_lower.size() != un) {
    return Status::InvalidArgument("snapshot history envelope size mismatch");
  }
  if (snapshot.env_mq_upper.size() != static_cast<std::size_t>(d_max) ||
      snapshot.env_mq_lower.size() != static_cast<std::size_t>(d_max)) {
    return Status::InvalidArgument(
        "snapshot master-query envelope size mismatch");
  }
  if (snapshot.head < 0 || snapshot.head >= S) {
    return Status::InvalidArgument("snapshot ring head out of range");
  }
  if (snapshot.cols != n / config.omega) {
    return Status::InvalidArgument(
        "snapshot disjoint-window count inconsistent with series length");
  }
  if (snapshot.prev_knn.size() != config.elv.size()) {
    return Status::InvalidArgument("snapshot prev-kNN arity mismatch");
  }
  for (std::size_t i = 0; i < snapshot.prev_knn.size(); ++i) {
    for (const Neighbor& nb : snapshot.prev_knn[i]) {
      if (nb.t < 0 || nb.t + config.elv[i] > n) {
        return Status::InvalidArgument("snapshot prev-kNN neighbor t out of "
                                       "range");
      }
    }
  }

  SmilerIndex idx;
  idx.cfg_ = config;
  idx.device_ = device;
  idx.series_ = std::move(snapshot.series);
  idx.d_max_ = d_max;
  idx.S_ = S;
  idx.R_ = snapshot.cols;
  idx.head_ = snapshot.head;
  idx.env_c_.upper = std::move(snapshot.env_c_upper);
  idx.env_c_.lower = std::move(snapshot.env_c_lower);
  idx.env_mq_.upper = std::move(snapshot.env_mq_upper);
  idx.env_mq_.lower = std::move(snapshot.env_mq_lower);
  if (!idx.lb_.Restore(S, snapshot.cols, snapshot.arena_stride, config.omega,
                       std::move(snapshot.arena))) {
    return Status::InvalidArgument("snapshot posting-list arena dimensions "
                                   "inconsistent");
  }
  idx.prev_knn_ = std::move(snapshot.prev_knn);
  SMILER_RETURN_NOT_OK(idx.UpdateMemoryAccounting());
  return idx;
}

SmilerIndex::~SmilerIndex() {
  if (device_ != nullptr && accounted_bytes_ > 0) {
    device_->FreeBytes(accounted_bytes_);
  }
}

SmilerIndex::SmilerIndex(SmilerIndex&& other) noexcept {
  *this = std::move(other);
}

SmilerIndex& SmilerIndex::operator=(SmilerIndex&& other) noexcept {
  if (this != &other) {
    if (device_ != nullptr && accounted_bytes_ > 0) {
      device_->FreeBytes(accounted_bytes_);
    }
    cfg_ = other.cfg_;
    device_ = other.device_;
    series_ = std::move(other.series_);
    env_c_ = std::move(other.env_c_);
    env_mq_ = std::move(other.env_mq_);
    d_max_ = other.d_max_;
    S_ = other.S_;
    R_ = other.R_;
    head_ = other.head_;
    lb_ = std::move(other.lb_);
    prev_knn_ = std::move(other.prev_knn_);
    accounted_bytes_ = other.accounted_bytes_;
    other.device_ = nullptr;
    other.accounted_bytes_ = 0;
  }
  return *this;
}

void SmilerIndex::RefreshMqEnvelope() {
  env_mq_ = dtw::ComputeEnvelope(MqData(), d_max_, cfg_.rho);
}

void SmilerIndex::ShiftMqEnvelope() {
  // The master query window slid one step: new MQ position p covers the
  // same absolute series values as old position p + 1 whenever neither
  // band end clamps differently, i.e. for p in [rho, d_max - 2 - rho].
  // Those entries shift verbatim; only the clamped head and the tail the
  // new observation perturbs need recomputation.
  const std::size_t d = static_cast<std::size_t>(d_max_);
  const std::size_t rho = static_cast<std::size_t>(cfg_.rho);
  double* up = env_mq_.upper.data();
  double* lo = env_mq_.lower.data();
  std::memmove(up, up + 1, (d - 1) * sizeof(double));
  std::memmove(lo, lo + 1, (d - 1) * sizeof(double));
  const std::size_t head_end = std::min(d, rho + 1);
  dtw::UpdateEnvelopeRange(MqData(), d, cfg_.rho, 0, head_end, &env_mq_);
  const std::size_t tail_begin = d > rho + 1 ? d - rho - 1 : 0;
  dtw::UpdateEnvelopeRange(MqData(), d, cfg_.rho, tail_begin, d, &env_mq_);
}

void SmilerIndex::ComputeRow(int logical_b, bool eq_only) {
  const int omega = cfg_.omega;
  const int phys = PhysicalRow(logical_b);
  const std::size_t mq_begin =
      static_cast<std::size_t>(SlidingWindowBegin(d_max_, omega, logical_b));
  double* eq_row = lb_.EqRow(phys);
  double* ec_row = lb_.EcRow(phys);
  for (long r = 0; r < R_; ++r) {
    const std::size_t c_begin = static_cast<std::size_t>(r) * omega;
    eq_row[r] = dtw::LbKeoghAligned(env_mq_, mq_begin, series_.data(),
                                    c_begin, omega);
    if (!eq_only) {
      ec_row[r] =
          dtw::LbKeoghAligned(env_c_, c_begin, MqData(), mq_begin, omega);
    }
  }
}

void SmilerIndex::ComputeColumnEntry(int logical_b, long r, bool both) {
  const int omega = cfg_.omega;
  const std::size_t c_begin = static_cast<std::size_t>(r) * omega;
  const std::size_t mq_begin =
      static_cast<std::size_t>(SlidingWindowBegin(d_max_, omega, logical_b));
  const int phys = PhysicalRow(logical_b);
  if (both) {
    lb_.EqRow(phys)[r] = dtw::LbKeoghAligned(env_mq_, mq_begin,
                                             series_.data(), c_begin, omega);
  }
  lb_.EcRow(phys)[r] =
      dtw::LbKeoghAligned(env_c_, c_begin, MqData(), mq_begin, omega);
}

Status SmilerIndex::Append(double value) {
  SMILER_TRACE_SPAN("index.append");
  static obs::Histogram& append_seconds =
      obs::Registry::Global().GetHistogram("index.append_seconds");
  WallTimer append_timer;
  const int omega = cfg_.omega;
  const int rho = cfg_.rho;
  series_.push_back(value);
  const long n = static_cast<long>(series_.size());

  // Maintain the global envelope of C: the new point perturbs at most the
  // trailing rho entries plus its own.
  env_c_.upper.push_back(value);
  env_c_.lower.push_back(value);
  const std::size_t env_begin =
      static_cast<std::size_t>(std::max<long>(0, n - 1 - rho));
  dtw::UpdateEnvelopeRange(series_.data(), series_.size(), rho, env_begin,
                           series_.size(), &env_c_);

  ShiftMqEnvelope();

  // Remark 1: the new sliding window takes over the physical row of the
  // retired oldest window; every logical label shifts by one.
  head_ = (head_ - 1 + S_) % S_;

  // A freshly completed disjoint window contributes one new column.
  const long new_r = (n % omega == 0) ? (n / omega - 1) : -1;
  if (new_r >= 0) {
    R_ = n / omega;
    lb_.EnsureCols(R_);
  }

  // Column maintenance: candidate-envelope entries of trailing disjoint
  // windows changed with env_c_ (validity, not just tightness: stale
  // entries could overestimate once segments extend past the old tail),
  // and the new column needs both halves. Every column is an independent
  // block; logical row 0 is skipped here because the row launch below
  // recomputes it in full with the same envelopes.
  const long first_changed_dw = static_cast<long>(env_begin) / omega;
  if (S_ > 1 && first_changed_dw < R_) {
    SmilerIndex* self = this;
    const int n_cols = static_cast<int>(R_ - first_changed_dw);
    const auto column_body = [self, first_changed_dw, new_r](long block) {
      const long r = first_changed_dw + block;
      for (int b = 1; b < self->S_; ++b) {
        self->ComputeColumnEntry(b, r, /*both=*/r == new_r);
      }
    };
    SMILER_RETURN_NOT_OK(device_->Launch(
        "index.append_columns", n_cols, omega,
        [column_body](simgpu::BlockContext& ctx) { column_body(ctx.block_id); },
        [column_body, n_cols](simgpu::NativeContext& nctx) {
          nctx.ParallelFor(static_cast<std::size_t>(n_cols),
                           [&](std::size_t b) {
                             column_body(static_cast<long>(b));
                           });
        }));
  }

  // Row maintenance: the new row 0 (both halves) plus the rho rows whose
  // master-query envelope entries widened (LBEQ half only) — the Remark-1
  // refresh. Rows are disjoint writes, one block each.
  const int refresh = std::min(rho, S_ - 1);
  SmilerIndex* self = this;
  SMILER_RETURN_NOT_OK(device_->Launch(
      "index.append_rows", refresh + 1, omega,
      [self](simgpu::BlockContext& ctx) {
        self->ComputeRow(ctx.block_id, /*eq_only=*/ctx.block_id != 0);
      },
      [self, refresh](simgpu::NativeContext& nctx) {
        nctx.ParallelFor(static_cast<std::size_t>(refresh) + 1,
                         [self](std::size_t b) {
                           self->ComputeRow(static_cast<int>(b),
                                            /*eq_only=*/b != 0);
                         });
      }));

  Status st = UpdateMemoryAccounting();
  append_seconds.Observe(append_timer.ElapsedSeconds());
  return st;
}

long SmilerIndex::NumCandidates(std::size_t elv_index,
                                int reserve_horizon) const {
  const long n = static_cast<long>(series_.size());
  const long d = cfg_.elv[elv_index];
  return std::max<long>(0, n - d - reserve_horizon + 1);
}

Result<LowerBoundTable> SmilerIndex::GroupLowerBounds(
    int reserve_horizon) const {
  const int omega = cfg_.omega;
  const std::size_t n_items = cfg_.elv.size();
  LowerBoundTable table;
  table.lb_eq.resize(n_items);
  table.lb_ec.resize(n_items);
  std::vector<long> t_limit(n_items);
  for (std::size_t i = 0; i < n_items; ++i) {
    const long ti = NumCandidates(i, reserve_horizon);
    t_limit[i] = ti - 1;
    table.lb_eq[i].assign(static_cast<std::size_t>(std::max<long>(0, ti)),
                          0.0);
    table.lb_ec[i].assign(static_cast<std::size_t>(std::max<long>(0, ti)),
                          0.0);
  }

  // Per CSG identifier b: the item queries' group sizes and offsets,
  // ascending by size so a single walk over j emits each in turn.
  struct Emit {
    int m;       // |CSG_{i,b}|
    int item;    // ELV index
    int offset;  // (d_i - b) % omega term of Eqn (4)
  };
  std::vector<std::vector<Emit>> emits(omega);
  for (int b = 0; b < omega; ++b) {
    for (std::size_t i = 0; i < n_items; ++i) {
      const int m = CsgSize(cfg_.elv[i], b, omega);
      if (m >= 1) {
        emits[b].push_back(Emit{m, static_cast<int>(i),
                                (cfg_.elv[i] - b) % omega});
      }
    }
    std::sort(emits[b].begin(), emits[b].end(),
              [](const Emit& a, const Emit& bb) { return a.m < bb.m; });
  }

  // Group-level kernel (Algorithm 1): one block per CSG. The shift-sum is
  // restructured as per-row accumulation — acc[r] carries
  // sum_{jj<=j} row_jj[r-jj]; folding posting-list row j is one linear
  // walk over the arena row and the accumulator, which vectorizes. After
  // row j is folded, the bounds of every item query whose CSG holds j+1
  // windows are emitted (Remark 2). Blocks write disjoint t ranges
  // ((t + d_i) % omega == b), so the table needs no synchronization.
  const SmilerIndex* self = this;
  LowerBoundTable* out = &table;
  const std::vector<long>* limits = &t_limit;
  const std::vector<std::vector<Emit>>* emit_ptr = &emits;
  // One shared per-CSG fold body: the grid backend runs it once per block,
  // the native backend as a flat loop over CSG identifiers — bitwise the
  // same sums either way, with no arena/timer per CSG on the native path.
  const auto fold_csg = [self, out, limits, emit_ptr, omega](int b) {
    const std::vector<Emit>& todo = (*emit_ptr)[b];
    if (todo.empty()) return;
    const int max_m = todo.back().m;
    const long R = self->R_;
    std::vector<double> acc_eq(static_cast<std::size_t>(R), 0.0);
    std::vector<double> acc_ec(static_cast<std::size_t>(R), 0.0);
    std::size_t ptr = 0;
    for (int j = 0; j < max_m; ++j) {
      const int row = self->PhysicalRow(b + j * omega);
      const double* eq = self->lb_.EqRow(row);
      const double* ec = self->lb_.EcRow(row);
      double* aeq = acc_eq.data();
      double* aec = acc_ec.data();
#pragma omp simd
      for (long r = j; r < R; ++r) {
        aeq[r] += eq[r - j];
        aec[r] += ec[r - j];
      }
      while (ptr < todo.size() && todo[ptr].m == j + 1) {
        const Emit& e = todo[ptr];
        const long limit = (*limits)[e.item];
        double* out_eq = out->lb_eq[e.item].data();
        double* out_ec = out->lb_ec[e.item].data();
        for (long r = j; r < R; ++r) {
          const long t = (r - j) * static_cast<long>(omega) - e.offset;
          if (t >= 0 && t <= limit) {
            out_eq[t] = aeq[r];
            out_ec[t] = aec[r];
          }
        }
        ++ptr;
      }
    }
  };
  // The kernels are bound to named variables first: a `#pragma` cannot
  // appear inside a macro argument (the pragma lives in fold_csg).
  const simgpu::Kernel group_kernel =
      [fold_csg](simgpu::BlockContext& ctx) { fold_csg(ctx.block_id); };
  const simgpu::NativeKernel group_native =
      [fold_csg, omega](simgpu::NativeContext& nctx) {
        nctx.ParallelFor(static_cast<std::size_t>(omega), [&](std::size_t b) {
          fold_csg(static_cast<int>(b));
        });
      };
  SMILER_RETURN_NOT_OK(device_->Launch("index.group_lower_bound", omega,
                                       omega, group_kernel, group_native));
  return table;
}

Result<LowerBoundTable> SmilerIndex::DirectLowerBounds(
    int reserve_horizon) const {
  const std::size_t n_items = cfg_.elv.size();
  LowerBoundTable table;
  table.lb_eq.resize(n_items);
  table.lb_ec.resize(n_items);
  const SmilerIndex* self = this;
  LowerBoundTable* out = &table;
  const int h = reserve_horizon;
  const auto direct_body = [self, out, h](std::size_t i) {
    const int d = self->cfg_.elv[i];
    const long t_count = self->NumCandidates(i, h);
    auto& eq = out->lb_eq[i];
    auto& ec = out->lb_ec[i];
    eq.assign(std::max<long>(0, t_count), 0.0);
    ec.assign(std::max<long>(0, t_count), 0.0);
    const double* q = self->series_.data() + self->series_.size() - d;
    const dtw::Envelope env_q = dtw::ComputeEnvelope(q, d, self->cfg_.rho);
    for (long t = 0; t < t_count; ++t) {
      eq[t] = dtw::LbKeogh(env_q, self->series_.data() + t, d);
      ec[t] = dtw::LbKeoghAligned(self->env_c_, t, q, 0, d);
    }
  };
  SMILER_RETURN_NOT_OK(device_->Launch(
      "index.direct_lower_bound", static_cast<int>(n_items), cfg_.omega,
      [direct_body](simgpu::BlockContext& ctx) {
        direct_body(static_cast<std::size_t>(ctx.block_id));
      },
      [direct_body, n_items](simgpu::NativeContext& nctx) {
        nctx.ParallelFor(n_items, direct_body);
      }));
  return table;
}

Status SmilerIndex::SearchItem(std::size_t item, const LowerBoundTable& table,
                               const SuffixSearchOptions& options,
                               ItemQueryResult* out,
                               SearchStats* item_stats) {
  const int d = cfg_.elv[item];
  const int k = options.k;
  const long t_count = NumCandidates(item, options.reserve_horizon);
  out->d = d;
  if (t_count <= 0) return Status::OK();
  item_stats->candidates_total += static_cast<std::uint64_t>(t_count);

  const double* q = series_.data() + series_.size() - d;

  // Covers threshold seeding, filtering and exact-DTW verification —
  // the region charged to verify_seconds below.
  std::optional<obs::ScopedSpan> verify_span;
  verify_span.emplace("search.verify");
  WallTimer timer;

  // Seeding and filtering are lower-bound work; the scope is paused by
  // the nested dtw_verify scope around the exact seed verification and
  // released before the device verification below.
  std::optional<obs::StageScope> filter_stage;
  filter_stage.emplace(obs::Stage::kLbFilter);

  // --- Threshold seeding (Section 4.3.3, Filtering) ---
  // Continuous query: re-verify the previous step's kNN. When fewer than
  // k previous neighbors survive the t < t_count cut (and on the initial
  // query, where there are none), top the seeds up with the candidates of
  // smallest lower bound. Either way tau is the k-th smallest verified
  // distance, a true upper bound on the k-th NN distance, so filtering
  // stays exact — without the top-up a shrunken seed set would leave tau
  // silently looser than the k-th distance.
  std::vector<Neighbor> seeds;
  std::vector<char> is_seed(t_count, 0);
  if (options.reuse_previous_threshold && !prev_knn_[item].empty()) {
    seeds.reserve(prev_knn_[item].size());
    for (const Neighbor& nb : prev_knn_[item]) {
      if (nb.t < t_count && !is_seed[nb.t]) {
        is_seed[nb.t] = 1;
        seeds.push_back(Neighbor{nb.t, 0.0});
      }
    }
  }
  if (static_cast<long>(seeds.size()) < std::min<long>(k, t_count)) {
    std::vector<Neighbor> by_bound;
    by_bound.reserve(t_count);
    for (long t = 0; t < t_count; ++t) {
      if (is_seed[t]) continue;
      by_bound.push_back(Neighbor{
          t, table.Bound(options.bound, item, static_cast<std::size_t>(t))});
    }
    for (const Neighbor& nb :
         KSelectSmallest(std::move(by_bound),
                         k - static_cast<int>(seeds.size()))) {
      is_seed[nb.t] = 1;
      seeds.push_back(Neighbor{nb.t, 0.0});
    }
  }
  // Verify seed distances exactly: the batched kernel with an infinite
  // cutoff never abandons, so every lane is bitwise CompressedDtw; the
  // last seeds.size() % kDtwBatchLanes seeds take the scalar kernel.
  constexpr int kB = dtw::kDtwBatchLanes;
  const int rho = cfg_.rho;
  {
    obs::StageScope seed_verify(obs::Stage::kDtwVerify);
    std::vector<double> scratch(dtw::CompressedDtwBatchScratchSize(rho));
    std::size_t s = 0;
    for (; s + kB <= seeds.size(); s += kB) {
      const double* lane_c[kB];
      double dist[kB];
      for (int l = 0; l < kB; ++l) lane_c[l] = series_.data() + seeds[s + l].t;
      dtw::CompressedDtwEarlyAbandonBatch(q, lane_c, d, rho, kInf, dist,
                                          scratch.data());
      for (int l = 0; l < kB; ++l) seeds[s + l].dist = dist[l];
    }
    for (; s < seeds.size(); ++s) {
      seeds[s].dist = dtw::CompressedDtw(q, series_.data() + seeds[s].t, d,
                                         rho, scratch.data());
    }
  }
  double tau = kInf;
  std::vector<double> seed_dists;
  seed_dists.reserve(seeds.size());
  for (const Neighbor& s : seeds) seed_dists.push_back(s.dist);
  if (static_cast<int>(seeds.size()) >= k) {
    std::vector<double> dists = seed_dists;
    std::nth_element(dists.begin(), dists.begin() + k - 1, dists.end());
    tau = dists[k - 1];
  }

  // --- Filtering ---
  struct Cand {
    long t;
    double lb;
  };
  std::vector<Cand> cand;
  for (long t = 0; t < t_count; ++t) {
    if (is_seed[t]) continue;
    const double lb =
        table.Bound(options.bound, item, static_cast<std::size_t>(t));
    if (lb <= tau) cand.push_back(Cand{t, lb});
  }
  // Ascending by lower bound: the most promising candidates are verified
  // first, so tau tightens as early as possible and the tail of the list
  // is abandoned or skipped outright.
  std::sort(cand.begin(), cand.end(), [](const Cand& a, const Cand& b) {
    if (a.lb != b.lb) return a.lb < b.lb;
    return a.t < b.t;
  });
  filter_stage.reset();
  // Device verification and selection are dtw_verify time (on helper
  // threads this is what lands in the request's parallel counters; on
  // the owner it folds into the enclosing dtw_verify scope).
  obs::StageScope verify_stage(obs::Stage::kDtwVerify);

  // --- Verification: compressed-warping-matrix banded DTW on device,
  // cascade-pruned against a monotonically tightening tau ---
  //
  // One strip body serves both backends. Strip s of n walks candidates
  // s, s + n, s + 2n, ... and verifies them kB at a time through the
  // lane-batched DTW (per lane bitwise the scalar kernel), the last < kB
  // of the strip through the scalar kernel. Each strip keeps a top-k of
  // true distances (seeds plus what it verified): its k-th smallest is
  // the k-th best of a subset of real candidates, hence a valid upper
  // bound on the k-th NN distance, so every strip tightens the shared tau
  // with a plain atomic min and the final kNN is identical under any
  // strip count or interleaving. The prune decision reads a fresh tau per
  // candidate; the early-abandon cutoff is the freshest tau of its batch.
  std::vector<double> cand_dist(cand.size(), kInf);
  std::atomic<double> shared_tau{tau};
  std::atomic<std::uint64_t> abandoned{0};
  std::atomic<std::uint64_t> pruned_late{0};
  if (!cand.empty()) {
    const std::size_t n_strips =
        std::min(device_->parallelism(), (cand.size() + 15) / 16);
    const auto verify_strip = [&](std::size_t strip, const double* qv,
                                  double* scratch) {
      std::priority_queue<double> topk(seed_dists.begin(), seed_dists.end());
      auto finish = [&](std::size_t idx, double dist) {
        if (dist == kInf) {
          abandoned.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        cand_dist[idx] = dist;
        if (static_cast<int>(topk.size()) < k) {
          topk.push(dist);
        } else if (dist < topk.top()) {
          topk.pop();
          topk.push(dist);
        }
        if (static_cast<int>(topk.size()) >= k) {
          AtomicMinDouble(&shared_tau, topk.top());
        }
      };
      const double* lane_c[kB];
      std::size_t lane_idx[kB];
      std::size_t idx = strip;
      while (idx < cand.size()) {
        int nl = 0;
        double tau_now = kInf;
        while (nl < kB && idx < cand.size()) {
          tau_now = shared_tau.load(std::memory_order_relaxed);
          if (cand[idx].lb > tau_now) {
            // tau tightened below this candidate's bound after the static
            // filter ran: its distance can no longer make the top k.
            pruned_late.fetch_add(1, std::memory_order_relaxed);
          } else {
            lane_c[nl] = series_.data() + cand[idx].t;
            lane_idx[nl] = idx;
            ++nl;
          }
          idx += n_strips;
        }
        if (nl == kB) {
          double dist[kB];
          dtw::CompressedDtwEarlyAbandonBatch(qv, lane_c, d, rho, tau_now,
                                              dist, scratch);
          for (int l = 0; l < kB; ++l) finish(lane_idx[l], dist[l]);
        } else {
          for (int l = 0; l < nl; ++l) {
            finish(lane_idx[l],
                   dtw::CompressedDtwEarlyAbandon(
                       qv, lane_c[l], d, rho,
                       shared_tau.load(std::memory_order_relaxed), scratch));
          }
        }
      }
    };
    // Grid: one strip per block, the query and the lane-major compressed
    // warping matrix in shared memory (Appendix E / Algorithm 2). Either
    // allocation can fail (arena exhausted, or chaos-injected); the
    // fallbacks — the query from global memory, heap scratch — hold the
    // very same values, so results stay bitwise-identical either way.
    const simgpu::Kernel verify_kernel = [&](simgpu::BlockContext& ctx) {
      double* shq = ctx.shared->Alloc<double>(d);
      if (shq != nullptr) std::memcpy(shq, q, sizeof(double) * d);
      double* scratch =
          ctx.shared->Alloc<double>(dtw::CompressedDtwBatchScratchSize(rho));
      std::vector<double> heap_scratch;
      if (scratch == nullptr) {
        heap_scratch.resize(dtw::CompressedDtwBatchScratchSize(rho));
        scratch = heap_scratch.data();
      }
      verify_strip(static_cast<std::size_t>(ctx.block_id),
                   shq != nullptr ? shq : q, scratch);
    };
    const simgpu::NativeKernel verify_native =
        [&](simgpu::NativeContext& nctx) {
          nctx.ParallelFor(n_strips, [&](std::size_t strip) {
            std::vector<double> scratch(
                dtw::CompressedDtwBatchScratchSize(rho));
            verify_strip(strip, q, scratch.data());
          });
        };
    SMILER_RETURN_NOT_OK(device_->Launch("index.verify_dtw",
                                         static_cast<int>(n_strips),
                                         cfg_.omega, verify_kernel,
                                         verify_native));
  }
  const std::uint64_t n_pruned_late =
      pruned_late.load(std::memory_order_relaxed);
  item_stats->candidates_verified +=
      static_cast<std::uint64_t>(cand.size() + seeds.size()) - n_pruned_late;
  item_stats->candidates_abandoned +=
      abandoned.load(std::memory_order_relaxed);
  item_stats->candidates_pruned_late += n_pruned_late;
  item_stats->verify_seconds += timer.ElapsedSeconds();
  verify_span.reset();

  // --- Selection: distributive-partitioning k-selection ---
  // Abandoned or late-pruned candidates carry dist = +inf: both provably
  // exceed the final k-th distance, so they can never displace a true
  // neighbor (KSelectSmallest handles infinities).
  timer.Reset();
  SMILER_TRACE_SPAN("search.select");
  std::vector<Neighbor> all = std::move(seeds);
  all.reserve(all.size() + cand.size());
  for (std::size_t idx = 0; idx < cand.size(); ++idx) {
    all.push_back(Neighbor{cand[idx].t, cand_dist[idx]});
  }
  out->neighbors = KSelectSmallest(std::move(all), k);
  prev_knn_[item] = out->neighbors;
  item_stats->select_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

Result<SuffixKnnResult> SmilerIndex::Search(const SuffixSearchOptions& options,
                                            SearchStats* stats) {
  SMILER_TRACE_SPAN("index.search");
  SMILER_ASSIGN_OR_RETURN(PendingSearch pending, BeginSearch(options));
  return FinishSearch(std::move(pending), stats);
}

Result<PendingSearch> SmilerIndex::BeginSearch(
    const SuffixSearchOptions& options) {
  if (options.k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (options.reserve_horizon < 0) {
    return Status::InvalidArgument("reserve_horizon must be >= 0");
  }
  PendingSearch pending;
  pending.options = options;
  WallTimer timer;
  {
    SMILER_TRACE_SPAN("search.lower_bound");
    obs::StageScope lb_stage(obs::Stage::kLbFilter);
    SMILER_ASSIGN_OR_RETURN(pending.table,
                            GroupLowerBounds(options.reserve_horizon));
  }
  pending.stats.lower_bound_seconds = timer.ElapsedSeconds();
  return pending;
}

Result<SuffixKnnResult> SmilerIndex::FinishSearch(PendingSearch pending,
                                                  SearchStats* stats) {
  const std::size_t n_items = cfg_.elv.size();
  SuffixKnnResult result;
  result.items.resize(n_items);

  // Item queries are independent (disjoint result slots, disjoint
  // prev_knn_ entries, read-only index state): fan them out over the
  // pool and merge their stats afterwards. Device launches issued from
  // inside a pool worker degrade to sequential block execution, so the
  // nested verify kernels stay deadlock-free.
  std::vector<SearchStats> item_stats(n_items);
  std::vector<Status> item_status(n_items);
  {
    // The owner's stage clock charges the whole fan-out (its own item
    // chunks plus the time blocked on the pool helpers) to dtw_verify;
    // SearchItem's nested lb_filter scope carves out the filtering
    // portion. Helper threads accrue to the request's parallel counters
    // through the same scopes.
    obs::StageScope verify_stage(obs::Stage::kDtwVerify);
    ThreadPool::Default().ParallelFor(n_items, [&](std::size_t i) {
      item_status[i] = SearchItem(i, pending.table, pending.options,
                                  &result.items[i], &item_stats[i]);
    });
  }
  for (std::size_t i = 0; i < n_items; ++i) {
    SMILER_RETURN_NOT_OK(item_status[i]);
    pending.stats.Add(item_stats[i]);
  }

  pending.stats.Publish();
  if (stats != nullptr) stats->Add(pending.stats);
  return result;
}

Status SmilerIndex::UpdateMemoryAccounting() {
  std::size_t bytes = series_.size() * sizeof(double);
  bytes += (env_c_.upper.size() + env_c_.lower.size()) * sizeof(double);
  bytes += (env_mq_.upper.size() + env_mq_.lower.size()) * sizeof(double);
  bytes += lb_.AllocatedBytes();
  if (bytes > accounted_bytes_) {
    SMILER_RETURN_NOT_OK(device_->AllocateBytes(bytes - accounted_bytes_));
  } else {
    device_->FreeBytes(accounted_bytes_ - bytes);
  }
  accounted_bytes_ = bytes;
  return Status::OK();
}

}  // namespace index
}  // namespace smiler
