#ifndef SMILER_CORE_ENGINE_H_
#define SMILER_CORE_ENGINE_H_

#include <array>
#include <deque>
#include <optional>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "index/smiler_index.h"
#include "la/matrix.h"
#include "predictors/ensemble.h"
#include "predictors/gp_predictor.h"
#include "simgpu/device.h"
#include "ts/series.h"

namespace smiler {
namespace core {

/// Which abstract-predictor instantiation the engine runs (Section 5.2).
enum class PredictorKind {
  kGp,  ///< SMiLer-GP: query-dependent Gaussian Processes
  kAr,  ///< SMiLer-AR: the simple aggregation predictor
};

/// Returns "SMiLer-GP" / "SMiLer-AR".
const char* PredictorKindName(PredictorKind kind);

/// \brief Per-prediction timing / instrumentation.
///
/// A thin per-call view over the `engine.*` metrics: Predict() fills one
/// of these for callers that aggregate by hand, and always mirrors the
/// same numbers into the global obs::Registry (`engine.search_seconds` /
/// `engine.predict_seconds` histograms, `engine.predictions` counter),
/// where dashboards and the SMILER_METRICS dump read them.
struct EngineStats {
  double search_seconds = 0.0;   ///< Search Step (Suffix kNN on the index)
  double predict_seconds = 0.0;  ///< Prediction Step (model fit + combine)
  index::SearchStats search;

  void Add(const EngineStats& other) {
    search_seconds += other.search_seconds;
    predict_seconds += other.predict_seconds;
    search.Add(other.search);
  }
};

/// \brief Complete serializable state of one SensorEngine — everything a
/// restarted process needs to resume continuous prediction without
/// replaying history or re-indexing.
///
/// Captures the configuration, the full index state (ring buffer,
/// envelopes, posting-list arena, threshold seeds), the ensemble's
/// adaptive weights, every GP cell's warm-start kernel, and the pending
/// (unresolved) forecasts. `serve::Checkpoint` serializes this struct to
/// the versioned on-disk format; a SensorEngine restored from it predicts
/// bitwise-identically to one that never restarted.
struct EngineSnapshot {
  SmilerConfig config;
  PredictorKind kind = PredictorKind::kGp;
  index::IndexSnapshot index;
  predictors::Ensemble::State ensemble;
  /// Warm-start kernel log-hyperparameters per ensemble cell (row-major
  /// |EKV| x |ELV|); nullopt = the cell has not trained yet.
  std::vector<std::optional<std::array<double, 3>>> gp_kernels;
  struct PendingForecast {
    long target_time = 0;
    predictors::PredictionGrid grid;
    predictors::Prediction raw;
  };
  std::vector<PendingForecast> pending;
};

/// \brief Phase-1 state of a split Predict(): the Search Step's kNN
/// results, the awake-cell list, and — for GP engines — the per-ELV-column
/// training inputs whose pairwise-squared-distance Grams are still
/// pending.
///
/// The split exists so a caller owning SEVERAL engines (the serve-layer
/// batch former) can gather every engine's `columns` into one fused
/// `gp.gram_batch` device launch before asking each engine to finish:
/// BeginPredict() → fill each column's `gram` (or leave `grams_ready`
/// false to have FinishPredict compute them solo) → FinishPredict().
/// Produced by one engine and consumed exactly once by the same engine;
/// fields other than `columns` / `grams_ready` are engine-internal.
struct PendingPredict {
  /// One per ELV column. `x` holds the column's training inputs at its
  /// largest awake k (empty when the column needs no Gram); `gram`
  /// receives the pairwise squared distances of `x`'s rows.
  struct GramColumn {
    la::Matrix x;
    la::Matrix gram;
  };
  std::vector<GramColumn> columns;
  /// Set by whoever computed the Grams; when still false at
  /// FinishPredict, the engine computes them itself (solo launches).
  bool grams_ready = false;

  /// Filled by FitCells (the cholesky phase); consumed by FinishPredict.
  predictors::PredictionGrid grid;
  bool cells_fit = false;

  // Engine-internal plumbing between the phases.
  index::PendingSearch search;  ///< between BeginPredictLb and ...Verify
  index::SuffixKnnResult knn;
  index::SearchStats search_stats;
  double search_seconds = 0.0;
  double gram_seconds = 0.0;
  double fit_seconds = 0.0;
  std::vector<std::pair<int, int>> cells;
};

/// \brief The end-to-end SMiLer pipeline for one sensor (Section 3.4):
/// Search Step (Continuous Suffix kNN Search on the SMiLer Index) followed
/// by Prediction Step (ensemble of semi-lazy predictors with the adaptive
/// auto-tuning mechanism).
///
/// Continuous-prediction protocol: alternate `Predict()` (forecast the
/// value config.horizon steps after the latest observation) and
/// `Observe(v)` (ingest the next observation; when it resolves a pending
/// forecast, the ensemble weights self-adapt).
class SensorEngine {
 public:
  /// Creates an engine for one sensor. \p history must already be
  /// z-normalized (see ts::ZNormalized) and long enough for the index.
  static Result<SensorEngine> Create(simgpu::Device* device,
                                     const ts::TimeSeries& history,
                                     const SmilerConfig& config,
                                     PredictorKind kind);

  /// Predicts the posterior distribution of the observation at time
  /// now() + config.horizon. \p stats, when non-null, accumulates timings.
  /// Exactly BeginPredict + ComputeGrams + FinishPredict.
  Result<predictors::Prediction> Predict(EngineStats* stats = nullptr);

  /// Phase 1 of a split Predict: runs the Search Step and publishes the
  /// per-column Gram jobs (see PendingPredict). No engine state changes
  /// until FinishPredict. Exactly BeginPredictLb + FinishPredictVerify.
  Result<PendingPredict> BeginPredict();

  /// Phase 1a: the Search Step's group-level lower-bound pass alone, so
  /// a caller can time it apart from the DTW verify that follows.
  Result<PendingPredict> BeginPredictLb();

  /// Phase 1b: DTW verify fan-out, awake-cell collection, and per-column
  /// training-input assembly. Mutates the index's threshold seeds — one
  /// in-flight phase per engine at a time.
  Status FinishPredictVerify(PendingPredict* pending);

  /// Computes every pending column Gram with this engine's own device
  /// launches ("gp.gram", one per column) — the solo path. Batch callers
  /// fill the columns across engines via
  /// gp::PairwiseSquaredDistancesOnDeviceBatch instead and skip this.
  void ComputeGrams(PendingPredict* pending);

  /// Phase 2a: fits the awake cells against the (now computed) Grams into
  /// `pending->grid`. Computes the Grams solo first if no one has.
  /// Idempotent; FinishPredict runs it itself when the caller has not.
  Status FitCells(PendingPredict* pending);

  /// Phase 2b: combines the ensemble over the fitted grid and records the
  /// pending forecast (runs FitCells first if the caller has not). A
  /// forecast for the same target time as the latest pending one
  /// replaces it, so at most one forecast per target time awaits its
  /// observation. The prediction is bitwise-identical to a monolithic
  /// Predict() whenever the supplied Grams are (the solo and the batched
  /// Gram launches guarantee that).
  Result<predictors::Prediction> FinishPredict(PendingPredict pending,
                                               EngineStats* stats = nullptr);

  /// Ingests the next observation (time now() + 1). Resolves any pending
  /// forecast targeting that time against the ensemble's self-adaptive
  /// weight update, then appends the value to the index (Remark 1 path).
  Status Observe(double value);

  /// Exports the engine's complete state for checkpointing (warm-restart
  /// snapshots). The engine must be quiescent (no concurrent Predict /
  /// Observe); serve-layer shards call this at batch boundaries.
  EngineSnapshot Snapshot() const;

  /// Rebuilds an engine from a snapshot without re-indexing. The restored
  /// engine's subsequent Predict/Observe sequence is bitwise-identical to
  /// the snapshotted engine's. Device memory is charged to \p device.
  static Result<SensorEngine> Restore(simgpu::Device* device,
                                      const EngineSnapshot& snapshot);

  /// Timestamp of the latest observation.
  long now() const { return index_.now(); }
  /// The device this engine launches kernels on (shared by the fleet);
  /// batch callers route fused launches through it.
  simgpu::Device* device() const { return index_.device(); }
  const SmilerConfig& config() const { return cfg_; }
  const predictors::Ensemble& ensemble() const { return ensemble_; }
  const index::SmilerIndex& index() const { return index_; }

 private:
  SensorEngine(SmilerConfig cfg, PredictorKind kind,
               index::SmilerIndex index);

  struct PendingForecast {
    long target_time = 0;
    predictors::PredictionGrid grid;
    /// Raw (pre-calibration) combined prediction, for the variance
    /// calibration update.
    predictors::Prediction raw;
  };

  SmilerConfig cfg_;
  PredictorKind kind_;
  index::SmilerIndex index_;
  predictors::Ensemble ensemble_;
  std::vector<predictors::GpCellPredictor> gp_cells_;
  /// Unresolved forecasts, one per target time, targets strictly
  /// increasing (at most config.horizon entries).
  std::deque<PendingForecast> pending_;
};

}  // namespace core
}  // namespace smiler

#endif  // SMILER_CORE_ENGINE_H_
