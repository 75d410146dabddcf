#ifndef SMILER_INDEX_SMILER_INDEX_H_
#define SMILER_INDEX_SMILER_INDEX_H_

#include <cstddef>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "dtw/envelope.h"
#include "index/knn_result.h"
#include "index/lb_arena.h"
#include "simgpu/device.h"
#include "ts/series.h"

namespace smiler {
namespace index {

/// Which lower bound the filtering phase uses (Table 3 ablation).
enum class LowerBoundMode {
  kLbeq,  ///< query-envelope bound only
  kLbec,  ///< candidate-envelope bound only
  kLben,  ///< max of both (the paper's enhanced bound, the default)
};

/// Returns "LBEQ" / "LBEC" / "LBen".
const char* LowerBoundModeName(LowerBoundMode mode);

/// \brief Options of one Suffix kNN Search invocation.
struct SuffixSearchOptions {
  /// Neighbors to return per item query (callers pass max(EKV) and slice
  /// prefixes for smaller ensemble entries, Section 4.1).
  int k = 32;
  /// Candidate segments must have their h-step-ahead value already
  /// observed: only t <= now - d + 1 - reserve_horizon qualifies. This also
  /// excludes the query segment itself from its own result.
  int reserve_horizon = 1;
  /// Lower bound used for filtering.
  LowerBoundMode bound = LowerBoundMode::kLben;
  /// Reuse the previous step's kNN to derive the filter threshold
  /// (Section 4.3.3, continuous prediction). The first search after Build
  /// always falls back to the k-th-smallest-lower-bound seeding.
  bool reuse_previous_threshold = true;
};

/// \brief Per-item-query lower-bound arrays produced by the group level of
/// the index (or the direct method): entry [t] bounds DTW(IQ_i, C_{t,d_i}).
struct LowerBoundTable {
  /// lb_eq[i][t] = sum of per-window LBEQ terms (Eqn 5 top row).
  std::vector<std::vector<double>> lb_eq;
  /// lb_ec[i][t] = sum of per-window LBEC terms (Eqn 5 bottom row).
  std::vector<std::vector<double>> lb_ec;

  /// The bound value under \p mode for item query \p i, candidate \p t.
  double Bound(LowerBoundMode mode, std::size_t i, std::size_t t) const {
    switch (mode) {
      case LowerBoundMode::kLbeq:
        return lb_eq[i][t];
      case LowerBoundMode::kLbec:
        return lb_ec[i][t];
      case LowerBoundMode::kLben:
        return lb_eq[i][t] > lb_ec[i][t] ? lb_eq[i][t] : lb_ec[i][t];
    }
    return 0.0;
  }
};

/// \brief Phase-1 state of a split Search(): the validated options plus
/// the group-level lower-bound table, awaiting the per-item verify
/// fan-out. Produced by BeginSearch and consumed exactly once by
/// FinishSearch on the same index, with no index mutation in between
/// (Append invalidates it).
struct PendingSearch {
  SuffixSearchOptions options;
  LowerBoundTable table;
  /// lower_bound_seconds is filled by BeginSearch; FinishSearch adds the
  /// filter/verify/select phases and publishes the merged stats.
  SearchStats stats;
};

/// \brief Complete serializable state of a SmilerIndex.
///
/// Everything the incremental-maintenance paths (Remark 1) have built up:
/// the history, both envelopes, the ring-buffer head, the posting-list
/// arena (raw layout, so a restore is a straight buffer adoption), and the
/// previous step's kNN threshold seeds. Restoring from a snapshot skips
/// the window-level build entirely and — because incremental state is
/// adopted verbatim rather than recomputed — subsequent searches are
/// bitwise-identical to an index that never restarted.
struct IndexSnapshot {
  std::vector<double> series;
  std::vector<double> env_c_upper, env_c_lower;    ///< history envelope
  std::vector<double> env_mq_upper, env_mq_lower;  ///< master-query envelope
  int head = 0;           ///< physical ring row of logical SW_0
  long cols = 0;          ///< complete disjoint windows R
  long arena_stride = 0;  ///< physical-row stride of the posting arena
  std::vector<double> arena;  ///< S * 2 * arena_stride doubles
  std::vector<std::vector<Neighbor>> prev_knn;  ///< per-ELV threshold seeds
};

/// \brief The SMiLer Index (Section 4.3): a per-sensor two-level
/// inverted-like index over (simulated) GPU memory answering Continuous
/// Suffix kNN Searches under banded DTW.
///
/// Window level: for every sliding window SW_b of the master query and
/// every disjoint window DW_r of the history, the posting lists store the
/// partial bounds LBEQ(SW_b, DW_r) and LBEC(SW_b, DW_r). Rows live in a
/// ring buffer so that appending an observation only (a) inserts one new
/// row and (b) refreshes the rho rows whose query-envelope entries changed
/// (Remark 1) — everything else is reused.
///
/// Group level: a one-pass shift-sum over each CSG's posting lists yields
/// the window enhanced lower bound LBw(IQ_i, C_{t,d_i}) for every item
/// query and candidate simultaneously (Algorithm 1 / Remark 2).
///
/// Search then follows filter (threshold tau_i) -> verify (compressed-
/// matrix banded DTW) -> select (distributive-partitioning k-selection).
class SmilerIndex {
 public:
  /// Builds the index for one sensor over \p history (values are used
  /// as-is; z-normalize upstream). Requires |history| >= MasterQueryLength
  /// + omega and a valid \p config. Device memory for the series and the
  /// posting lists is charged to \p device.
  static Result<SmilerIndex> Build(simgpu::Device* device,
                                   const ts::TimeSeries& history,
                                   const SmilerConfig& config);

  ~SmilerIndex();
  SmilerIndex(SmilerIndex&& other) noexcept;
  SmilerIndex& operator=(SmilerIndex&& other) noexcept;
  SmilerIndex(const SmilerIndex&) = delete;
  SmilerIndex& operator=(const SmilerIndex&) = delete;

  /// Exports the complete mutable state for checkpointing (see
  /// IndexSnapshot). O(state size) copies; no device work.
  IndexSnapshot Snapshot() const;

  /// Reconstructs an index from \p snapshot without re-indexing: the
  /// posting-list arena and envelopes are adopted verbatim instead of
  /// being recomputed, so the restored index is bitwise-identical to the
  /// snapshotted one. \p config must be the configuration the snapshot
  /// was taken under (dimension mismatches fail with InvalidArgument).
  /// Device memory for the restored state is charged to \p device.
  static Result<SmilerIndex> Restore(simgpu::Device* device,
                                     const SmilerConfig& config,
                                     IndexSnapshot snapshot);

  /// Ingests a newly observed value: appends to the history, shifts the
  /// master query one step, and incrementally maintains the window level
  /// (Remark 1). Cost O(rho * R + S * rho) vs O(S * R) for a rebuild.
  Status Append(double value);

  /// Runs the Continuous Suffix kNN Search for the current master query
  /// (the last MasterQueryLength() observations). Returns one
  /// ItemQueryResult per ELV entry. \p stats, when non-null, receives
  /// phase timings and candidate counts.
  Result<SuffixKnnResult> Search(const SuffixSearchOptions& options,
                                 SearchStats* stats = nullptr);

  /// Phase 1 of a split Search: validates \p options and runs the
  /// group-level lower-bound pass (the lb_filter stage). The returned
  /// state feeds FinishSearch; Search() is exactly BeginSearch +
  /// FinishSearch, so a split invocation is bitwise-identical to the
  /// monolithic one (SensorEngine::BeginPredictLb runs this phase alone).
  Result<PendingSearch> BeginSearch(const SuffixSearchOptions& options);

  /// Phase 2: the per-item filter → verify → select fan-out (the
  /// dtw_verify stage) over \p pending's lower bounds, merging and
  /// publishing the search stats. Mutates the per-item threshold seeds
  /// (prev_knn_), so calls for the same index must not race.
  Result<SuffixKnnResult> FinishSearch(PendingSearch pending,
                                       SearchStats* stats = nullptr);

  /// \brief Group-level pass alone: lower bounds for every item query and
  /// candidate via the two-level index (the "SMiLer-Idx" side of Fig 8).
  /// Fails when the device rejects the kernel launch (a failure here must
  /// surface instead of silently yielding all-zero bounds).
  Result<LowerBoundTable> GroupLowerBounds(int reserve_horizon) const;

  /// \brief The strawman of Fig 8 ("SMiLer-Dir"): computes
  /// LBen(IQ_i, C_{t,d_i}) directly from full-length envelopes for every
  /// item query and candidate, without the window-level index.
  Result<LowerBoundTable> DirectLowerBounds(int reserve_horizon) const;

  /// Number of valid candidate segments for ELV entry \p i under
  /// \p reserve_horizon (0 when the history is too short).
  long NumCandidates(std::size_t elv_index, int reserve_horizon) const;

  /// The device this index charges memory to and launches kernels on
  /// (shared with the engine's GP Gram evaluation — one backend selection
  /// governs the whole predict path).
  simgpu::Device* device() const { return device_; }

  /// The sensor's full history (z-normalized values as supplied).
  const std::vector<double>& series() const { return series_; }
  /// Timestamp of the latest observation.
  long now() const { return static_cast<long>(series_.size()) - 1; }
  const SmilerConfig& config() const { return cfg_; }

  /// Bytes currently charged against the device for this index (series,
  /// envelopes, posting lists). Powers the Fig 12(c) capacity study.
  std::size_t MemoryFootprintBytes() const { return accounted_bytes_; }

  /// Number of sliding windows S (exposed for tests).
  int num_sliding_windows() const { return S_; }
  /// Number of complete disjoint windows R (exposed for tests).
  long num_disjoint_windows() const { return R_; }

 private:
  SmilerIndex() = default;

  /// Pointer to the first value of the master query (last d_max values).
  const double* MqData() const {
    return series_.data() + series_.size() - d_max_;
  }
  /// Physical ring row of logical sliding window b.
  int PhysicalRow(int logical_b) const { return (head_ + logical_b) % S_; }

  /// Recomputes the full posting-list row of logical window \p b.
  /// \p eq_only skips the LBEC half (used by the Remark-1 refresh where
  /// only the query envelope changed).
  void ComputeRow(int logical_b, bool eq_only);
  /// Recomputes column \p r of row \p logical_b's LBEC half
  /// (candidate-envelope entries change when appends perturb the tail of
  /// env_c_). \p both also refreshes the LBEQ half (new DW columns).
  void ComputeColumnEntry(int logical_b, long r, bool both);
  /// Recomputes env_mq_ from the current master query from scratch.
  void RefreshMqEnvelope();
  /// Shifts env_mq_ one step after an append and repairs only the
  /// boundary-clamped head and the new-point tail (interior entries of the
  /// shifted window cover identical series values, so they move verbatim).
  void ShiftMqEnvelope();
  /// Filter -> sorted verify -> select for one ELV entry (the body of the
  /// per-item parallel loop in Search).
  Status SearchItem(std::size_t item, const LowerBoundTable& table,
                    const SuffixSearchOptions& options,
                    ItemQueryResult* out, SearchStats* item_stats);
  /// Re-charges the device with the current footprint delta.
  Status UpdateMemoryAccounting();

  SmilerConfig cfg_;
  simgpu::Device* device_ = nullptr;
  std::vector<double> series_;
  dtw::Envelope env_c_;   // global envelope of the history
  dtw::Envelope env_mq_;  // envelope of the current master query
  int d_max_ = 0;
  int S_ = 0;   // sliding windows per master query
  long R_ = 0;  // complete disjoint windows
  int head_ = 0;  // physical row of logical SW_0
  // Posting lists: one flat row-major arena holding both the LBEQ and
  // LBEC halves, indexed by physical row.
  LbArena lb_;
  // Previous step's kNN per item query (threshold reuse).
  std::vector<std::vector<Neighbor>> prev_knn_;
  std::size_t accounted_bytes_ = 0;
};

}  // namespace index
}  // namespace smiler

#endif  // SMILER_INDEX_SMILER_INDEX_H_
