#include "core/engine.h"

#include <utility>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "gp/kernel.h"
#include "obs/obs.h"
#include "predictors/ar_predictor.h"
#include "predictors/predictor.h"

namespace smiler {
namespace core {

const char* PredictorKindName(PredictorKind kind) {
  switch (kind) {
    case PredictorKind::kGp:
      return "SMiLer-GP";
    case PredictorKind::kAr:
      return "SMiLer-AR";
  }
  return "UNKNOWN";
}

SensorEngine::SensorEngine(SmilerConfig cfg, PredictorKind kind,
                           index::SmilerIndex index)
    : cfg_(std::move(cfg)),
      kind_(kind),
      index_(std::move(index)),
      ensemble_(predictors::Ensemble::Options{
          static_cast<int>(cfg_.ekv.size()),
          static_cast<int>(cfg_.elv.size()),
          cfg_.use_ensemble && cfg_.self_adaptive_weights,
          cfg_.use_ensemble && cfg_.self_adaptive_weights &&
              cfg_.sleep_and_recovery}),
      gp_cells_(cfg_.ekv.size() * cfg_.elv.size()) {}

Result<SensorEngine> SensorEngine::Create(simgpu::Device* device,
                                          const ts::TimeSeries& history,
                                          const SmilerConfig& config,
                                          PredictorKind kind) {
  SmilerConfig cfg = config;
  if (!cfg.use_ensemble && (cfg.ekv.size() > 1 || cfg.elv.size() > 1)) {
    return Status::InvalidArgument(
        "use_ensemble == false requires singleton EKV and ELV");
  }
  SMILER_ASSIGN_OR_RETURN(index::SmilerIndex index,
                          index::SmilerIndex::Build(device, history, cfg));
  return SensorEngine(std::move(cfg), kind, std::move(index));
}

EngineSnapshot SensorEngine::Snapshot() const {
  EngineSnapshot snap;
  snap.config = cfg_;
  snap.kind = kind_;
  snap.index = index_.Snapshot();
  snap.ensemble = ensemble_.ExportState();
  snap.gp_kernels.reserve(gp_cells_.size());
  for (const predictors::GpCellPredictor& cell : gp_cells_) {
    if (cell.kernel().has_value()) {
      snap.gp_kernels.push_back(cell.kernel()->log_params());
    } else {
      snap.gp_kernels.push_back(std::nullopt);
    }
  }
  snap.pending.reserve(pending_.size());
  for (const PendingForecast& p : pending_) {
    snap.pending.push_back(
        EngineSnapshot::PendingForecast{p.target_time, p.grid, p.raw});
  }
  return snap;
}

Result<SensorEngine> SensorEngine::Restore(simgpu::Device* device,
                                           const EngineSnapshot& snapshot) {
  const SmilerConfig& cfg = snapshot.config;
  if (!cfg.use_ensemble && (cfg.ekv.size() > 1 || cfg.elv.size() > 1)) {
    return Status::InvalidArgument(
        "use_ensemble == false requires singleton EKV and ELV");
  }
  SMILER_ASSIGN_OR_RETURN(
      index::SmilerIndex index,
      index::SmilerIndex::Restore(device, cfg, snapshot.index));
  SensorEngine engine(cfg, snapshot.kind, std::move(index));
  SMILER_RETURN_NOT_OK(engine.ensemble_.RestoreState(snapshot.ensemble));
  if (snapshot.gp_kernels.size() != engine.gp_cells_.size()) {
    return Status::InvalidArgument("snapshot GP cell count mismatch");
  }
  for (std::size_t i = 0; i < snapshot.gp_kernels.size(); ++i) {
    if (snapshot.gp_kernels[i].has_value()) {
      engine.gp_cells_[i].RestoreKernel(gp::SeKernel(
          (*snapshot.gp_kernels[i])[0], (*snapshot.gp_kernels[i])[1],
          (*snapshot.gp_kernels[i])[2]));
    }
  }
  const int rows = static_cast<int>(cfg.ekv.size());
  const int cols = static_cast<int>(cfg.elv.size());
  for (const EngineSnapshot::PendingForecast& p : snapshot.pending) {
    if (p.grid.rows != rows || p.grid.cols != cols) {
      return Status::InvalidArgument("snapshot pending-grid shape mismatch");
    }
    engine.pending_.push_back(PendingForecast{p.target_time, p.grid, p.raw});
  }
  return engine;
}

Result<predictors::Prediction> SensorEngine::Predict(EngineStats* stats) {
  SMILER_TRACE_SPAN("engine.predict");
  SMILER_ASSIGN_OR_RETURN(PendingPredict pending, BeginPredict());
  ComputeGrams(&pending);
  return FinishPredict(std::move(pending), stats);
}

Result<PendingPredict> SensorEngine::BeginPredict() {
  SMILER_ASSIGN_OR_RETURN(PendingPredict pending, BeginPredictLb());
  SMILER_RETURN_NOT_OK(FinishPredictVerify(&pending));
  return pending;
}

Result<PendingPredict> SensorEngine::BeginPredictLb() {
  PendingPredict pending;
  WallTimer timer;
  index::SuffixSearchOptions opts;
  opts.k = cfg_.MaxK();
  opts.reserve_horizon = cfg_.horizon;
  Result<index::PendingSearch> search_or = [&] {
    SMILER_TRACE_SPAN("engine.search");
    return index_.BeginSearch(opts);
  }();
  if (!search_or.ok()) return search_or.status();
  pending.search = std::move(*search_or);
  pending.search_seconds += timer.ElapsedSeconds();
  return pending;
}

Status SensorEngine::FinishPredictVerify(PendingPredict* pending_out) {
  static obs::Histogram& search_hist =
      obs::Registry::Global().GetHistogram("engine.search_seconds");

  PendingPredict& pending = *pending_out;
  WallTimer timer;
  Result<index::SuffixKnnResult> knn_or = [&] {
    SMILER_TRACE_SPAN("engine.search");
    return index_.FinishSearch(std::move(pending.search),
                               &pending.search_stats);
  }();
  if (!knn_or.ok()) return knn_or.status();
  pending.knn = std::move(*knn_or);
  pending.search_seconds += timer.ElapsedSeconds();
  search_hist.Observe(pending.search_seconds);

  // Collect the awake cells; fitting happens in FinishPredict.
  const int rows = static_cast<int>(cfg_.ekv.size());
  const int cols = static_cast<int>(cfg_.elv.size());
  pending.cells.reserve(rows * cols);
  for (int j = 0; j < cols; ++j) {
    if (pending.knn.items[j].neighbors.empty()) continue;
    for (int i = 0; i < rows; ++i) {
      if (ensemble_.IsAwake(i, j)) pending.cells.emplace_back(i, j);
    }
  }
  // Cross-cell Gram reuse (GP only): every EKV row of an ELV column
  // trains on a prefix of the same neighbor list, so one pairwise
  // squared-distance matrix per column — computed once at the column's
  // largest awake k — serves all of its cells through leading-submatrix
  // views, and every CG evaluation inside each cell reuses it again.
  // Here we only assemble the training inputs; the Grams themselves are
  // computed by ComputeGrams (solo) or a cross-engine batched launch.
  pending.columns.resize(cols);
  if (kind_ == PredictorKind::kGp) {
    WallTimer gram_timer;
    std::vector<int> column_max_k(cols, 0);
    for (const auto& [i, j] : pending.cells) {
      column_max_k[j] = std::max(column_max_k[j], cfg_.ekv[i]);
    }
    const std::vector<double>& series = index_.series();
    for (int j = 0; j < cols; ++j) {
      if (column_max_k[j] == 0) continue;
      auto full = predictors::MakeTrainingSet(series, pending.knn.items[j],
                                              column_max_k[j], cfg_.horizon);
      // On failure the cells recompute their own distances (and surface
      // the same failure themselves if it affects them).
      if (!full.ok()) continue;
      pending.columns[j].x = std::move(full->x);
    }
    pending.gram_seconds += gram_timer.ElapsedSeconds();
  }
  return Status::OK();
}

void SensorEngine::ComputeGrams(PendingPredict* pending) {
  if (pending->grams_ready) return;
  pending->grams_ready = true;
  if (kind_ != PredictorKind::kGp) return;
  SMILER_TRACE_SPAN("engine.gram_cache");
  obs::StageScope gram_stage(obs::Stage::kGram);
  static obs::Counter& gram_columns =
      obs::Registry::Global().GetCounter("engine.gram_columns");
  WallTimer gram_timer;
  for (PendingPredict::GramColumn& column : pending->columns) {
    if (column.x.rows() == 0) continue;
    // Route the Gram through the device so SE-kernel evaluation runs on
    // the selected backend and is profiled as "gp.gram"; both backends
    // are bitwise-identical to the host function. A launch failure
    // (e.g. chaos injection) falls back to the host path — same
    // degradation contract as the cells recomputing their own distances.
    auto gram_or = gp::PairwiseSquaredDistancesOnDevice(index_.device(),
                                                        column.x);
    column.gram = gram_or.ok() ? std::move(*gram_or)
                               : gp::PairwiseSquaredDistances(column.x);
    gram_columns.Increment();
  }
  pending->gram_seconds += gram_timer.ElapsedSeconds();
}

Status SensorEngine::FitCells(PendingPredict* pending_out) {
  PendingPredict& pending = *pending_out;
  if (pending.cells_fit) return Status::OK();
  pending.cells_fit = true;
  if (!pending.grams_ready) ComputeGrams(&pending);
  WallTimer timer;
  SMILER_TRACE_SPAN("engine.fit_cells");
  const int cols = static_cast<int>(cfg_.elv.size());
  pending.grid =
      predictors::PredictionGrid(static_cast<int>(cfg_.ekv.size()), cols);
  predictors::PredictionGrid& grid = pending.grid;
  const std::vector<double>& series = index_.series();
  const index::SuffixKnnResult& knn = pending.knn;

  // Fit the awake cells — concurrently when enabled (cells are
  // independent: disjoint predictor state, disjoint grid slots, shared
  // read-only kNN data).
  auto fit_cell = [&](std::size_t idx) {
    const auto [i, j] = pending.cells[idx];
    const index::ItemQueryResult& item = knn.items[j];
    const double* x0 = series.data() + series.size() - item.d;
    auto set = predictors::MakeTrainingSet(series, item, cfg_.ekv[i],
                                           cfg_.horizon);
    if (!set.ok()) return;
    predictors::Prediction p;
    if (kind_ == PredictorKind::kGp) {
      predictors::GpCellPredictor& cell = gp_cells_[i * cols + j];
      if (!cfg_.gp_warm_start) cell.Reset();
      const la::Matrix& column_gram = pending.columns[j].gram;
      la::ConstMatrixView gram_view;
      const la::ConstMatrixView* gram = nullptr;
      if (!column_gram.empty() && set->x.rows() <= column_gram.rows()) {
        gram_view = la::ConstMatrixView(column_gram).Leading(set->x.rows());
        gram = &gram_view;
      }
      p = cell.Predict(*set, x0, cfg_.initial_cg_steps,
                       cfg_.online_cg_steps, gram);
    } else {
      p = predictors::AggregationPredict(*set);
    }
    grid.Set(i, j, p);
  };
  if (cfg_.parallel_prediction) {
    ThreadPool::Default().ParallelFor(pending.cells.size(), fit_cell);
  } else {
    for (std::size_t idx = 0; idx < pending.cells.size(); ++idx) {
      fit_cell(idx);
    }
  }
  pending.fit_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

Result<predictors::Prediction> SensorEngine::FinishPredict(
    PendingPredict pending, EngineStats* stats) {
  static obs::Counter& predictions =
      obs::Registry::Global().GetCounter("engine.predictions");
  static obs::Histogram& predict_hist =
      obs::Registry::Global().GetHistogram("engine.predict_seconds");

  SMILER_RETURN_NOT_OK(FitCells(&pending));
  WallTimer timer;
  SMILER_TRACE_SPAN("engine.predict_step");
  const predictors::Prediction raw = ensemble_.CombineRaw(pending.grid);
  predictors::Prediction combined = raw;
  combined.variance *= ensemble_.variance_scale();
  // Targets never decrease, so a repeated Predict before the Observe that
  // resolves it targets the back entry: the latest forecast replaces it
  // rather than queueing a second weight update for the same observation.
  PendingForecast forecast{now() + cfg_.horizon, std::move(pending.grid),
                           raw};
  if (!pending_.empty() &&
      pending_.back().target_time == forecast.target_time) {
    pending_.back() = std::move(forecast);
  } else {
    pending_.push_back(std::move(forecast));
  }

  // The Prediction Step's cost spans all of its phases: the
  // Gram/training-set assembly and cell fits (wherever they ran) plus the
  // combine here.
  const double predict_seconds =
      pending.gram_seconds + pending.fit_seconds + timer.ElapsedSeconds();
  predict_hist.Observe(predict_seconds);
  predictions.Increment();
  if (stats != nullptr) {
    stats->search_seconds += pending.search_seconds;
    stats->predict_seconds += predict_seconds;
    stats->search.Add(pending.search_stats);
  }
  return combined;
}

Status SensorEngine::Observe(double value) {
  SMILER_TRACE_SPAN("engine.observe");
  // Reject non-finite samples before ANY state is touched: the pending
  // queue, the ensemble weights, and the index must stay exactly as they
  // were so a client can drop the bad sample and continue.
  SMILER_RETURN_NOT_OK(ts::ValidateObservation(value));
  static obs::Counter& observations =
      obs::Registry::Global().GetCounter("engine.observations");
  observations.Increment();
  const long t_new = now() + 1;
  while (!pending_.empty() && pending_.front().target_time <= t_new) {
    if (pending_.front().target_time == t_new) {
      SMILER_TRACE_SPAN("engine.ensemble_update");
      ensemble_.ObserveCalibration(value, pending_.front().raw);
      ensemble_.Observe(value, pending_.front().grid);
    }
    pending_.pop_front();
  }
  return index_.Append(value);
}

}  // namespace core
}  // namespace smiler
