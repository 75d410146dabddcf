#include "chaos/invariants.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault.h"
#include "dtw/envelope.h"
#include "dtw/lower_bounds.h"
#include "index/csg.h"
#include "serve/checkpoint.h"

namespace smiler {
namespace chaos {
namespace {

/// Accumulates "<label>: <message>" strings into the caller's list.
class Reporter {
 public:
  Reporter(const std::string& label, std::vector<std::string>* out)
      : label_(label), out_(out) {}

  void Violate(const std::string& message) {
    ++count_;
    if (out_ != nullptr) out_->push_back(label_ + ": " + message);
  }

  int count() const { return count_; }

 private:
  const std::string& label_;
  std::vector<std::string>* out_;
  int count_ = 0;
};

bool AllFinite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

std::string Str(long v) { return std::to_string(v); }

/// First index where the recomputed envelope disagrees with the stored
/// one, or -1 when they match exactly.
long FirstEnvelopeMismatch(const std::vector<double>& upper,
                           const std::vector<double>& lower,
                           const dtw::Envelope& expect) {
  if (upper.size() != expect.upper.size() ||
      lower.size() != expect.lower.size()) {
    return 0;
  }
  for (std::size_t i = 0; i < upper.size(); ++i) {
    if (upper[i] != expect.upper[i] || lower[i] != expect.lower[i]) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return false;
  std::ostringstream buf;
  buf << file.rdbuf();
  *out = buf.str();
  return true;
}

}  // namespace

int InvariantChecker::CheckEngineSnapshot(const std::string& label,
                                          const core::EngineSnapshot& snap,
                                          std::vector<std::string>* out,
                                          ArenaCheckMode mode) {
  Reporter report(label, out);
  const SmilerConfig& cfg = snap.config;

  Status cfg_status = cfg.Validate();
  if (!cfg_status.ok()) {
    report.Violate("config invalid: " + cfg_status.message());
    return report.count();  // everything below depends on the geometry
  }
  const int omega = cfg.omega;
  const int rho = cfg.rho;
  const int d_max = cfg.MasterQueryLength();
  const int S = index::NumSlidingWindows(d_max, omega);
  const index::IndexSnapshot& idx = snap.index;
  const long n = static_cast<long>(idx.series.size());

  if (n < d_max + omega) {
    report.Violate("series too short: " + Str(n) + " < " + Str(d_max + omega));
    return report.count();
  }
  if (!AllFinite(idx.series)) {
    report.Violate("series contains a non-finite value");
    return report.count();  // envelopes/bounds would cascade
  }

  // --- Envelopes: the incremental maintenance (UpdateEnvelopeRange /
  // ShiftMqEnvelope) must equal a from-scratch recompute bitwise. min/max
  // are order-insensitive, so this holds exactly, not just approximately.
  bool envelopes_ok = true;
  if (idx.env_c_upper.size() != static_cast<std::size_t>(n) ||
      idx.env_c_lower.size() != static_cast<std::size_t>(n)) {
    report.Violate("history envelope size mismatch");
    envelopes_ok = false;
  }
  if (idx.env_mq_upper.size() != static_cast<std::size_t>(d_max) ||
      idx.env_mq_lower.size() != static_cast<std::size_t>(d_max)) {
    report.Violate("master-query envelope size mismatch");
    envelopes_ok = false;
  }
  const double* mq = idx.series.data() + n - d_max;
  if (envelopes_ok) {
    const dtw::Envelope env_c_expect =
        dtw::ComputeEnvelope(idx.series.data(), idx.series.size(), rho);
    long bad = FirstEnvelopeMismatch(idx.env_c_upper, idx.env_c_lower,
                                     env_c_expect);
    if (bad >= 0) {
      report.Violate("history envelope diverges from recompute at position " +
                     Str(bad));
      envelopes_ok = false;
    }
    const dtw::Envelope env_mq_expect = dtw::ComputeEnvelope(mq, d_max, rho);
    bad = FirstEnvelopeMismatch(idx.env_mq_upper, idx.env_mq_lower,
                                env_mq_expect);
    if (bad >= 0) {
      report.Violate(
          "master-query envelope diverges from recompute at position " +
          Str(bad));
      envelopes_ok = false;
    }
  }

  // --- Ring / arena geometry.
  bool geometry_ok = true;
  if (idx.head < 0 || idx.head >= S) {
    report.Violate("ring head " + Str(idx.head) + " outside [0, " + Str(S) +
                   ")");
    geometry_ok = false;
  }
  if (idx.cols != n / omega) {
    report.Violate("disjoint-window count " + Str(idx.cols) + " != " +
                   Str(n / omega));
    geometry_ok = false;
  }
  if (idx.arena_stride < idx.cols || idx.arena_stride % omega != 0) {
    report.Violate("arena stride " + Str(idx.arena_stride) +
                   " inconsistent with cols " + Str(idx.cols) + " / omega " +
                   Str(omega));
    geometry_ok = false;
  }
  if (idx.arena.size() !=
      static_cast<std::size_t>(S) * 2 * idx.arena_stride) {
    report.Violate("arena size " + Str(static_cast<long>(idx.arena.size())) +
                   " != S * 2 * stride");
    geometry_ok = false;
  }

  // --- Posting lists (the deep check). LBEC entries and non-head LBEQ
  // entries must equal a recompute bitwise: the incremental maintenance
  // recomputes exactly the perturbed entries with the same pure function,
  // and the reused ones cover the same absolute values. LBEQ entries of
  // head-region rows (master-query window inside the envelope's clamped
  // head, SlidingWindowBegin < rho + 1) may have been computed against an
  // older, wider envelope clamp; the stored value must then only be a
  // valid (not larger) lower bound: stored <= recomputed.
  // In kQuantizedLowerBound mode (engine round-tripped through the cold
  // tier's 16-bit spill encoding) every entry — LBEC included — must only
  // satisfy stored <= recomputed: the encoder rounds each level down, so
  // decoded entries are valid but not bitwise-identical bounds.
  const bool quantized = mode == ArenaCheckMode::kQuantizedLowerBound;
  if (envelopes_ok && geometry_ok) {
    dtw::Envelope env_c;
    env_c.upper = idx.env_c_upper;
    env_c.lower = idx.env_c_lower;
    dtw::Envelope env_mq;
    env_mq.upper = idx.env_mq_upper;
    env_mq.lower = idx.env_mq_lower;
    const long stride = idx.arena_stride;
    for (int b = 0; b < S && report.count() < 16; ++b) {
      const int phys = (idx.head + b) % S;
      const std::size_t mq_begin = static_cast<std::size_t>(
          index::SlidingWindowBegin(d_max, omega, b));
      const bool head_region = mq_begin < static_cast<std::size_t>(rho) + 1;
      const double* eq_row = idx.arena.data() +
                             static_cast<std::size_t>(phys) * 2 * stride;
      const double* ec_row = eq_row + stride;
      for (long r = 0; r < idx.cols; ++r) {
        const std::size_t c_begin = static_cast<std::size_t>(r) * omega;
        const double eq = eq_row[r];
        const double ec = ec_row[r];
        if (!std::isfinite(eq) || eq < 0.0 || !std::isfinite(ec) ||
            ec < 0.0) {
          report.Violate("posting (b=" + Str(b) + ", r=" + Str(r) +
                         ") not a finite non-negative bound");
          continue;
        }
        const double eq_expect = dtw::LbKeoghAligned(
            env_mq, mq_begin, idx.series.data(), c_begin, omega);
        const double ec_expect =
            dtw::LbKeoghAligned(env_c, c_begin, mq, mq_begin, omega);
        if (quantized ? (ec > ec_expect) : (ec != ec_expect)) {
          report.Violate("LBEC(b=" + Str(b) + ", r=" + Str(r) + ") " +
                         (quantized ? "exceeds" : "diverges from") +
                         " recompute: stored " + std::to_string(ec) +
                         " expected " + std::to_string(ec_expect));
        }
        const bool eq_lower_bound_only = head_region || quantized;
        if (eq_lower_bound_only ? (eq > eq_expect) : (eq != eq_expect)) {
          report.Violate("LBEQ(b=" + Str(b) + ", r=" + Str(r) + ") " +
                         (eq_lower_bound_only ? "exceeds" : "diverges from") +
                         " recompute: stored " + std::to_string(eq) +
                         " expected " + std::to_string(eq_expect));
        }
      }
    }
  }

  // --- Previous-result threshold seeds.
  if (idx.prev_knn.size() != cfg.elv.size()) {
    report.Violate("prev_knn arity " +
                   Str(static_cast<long>(idx.prev_knn.size())) + " != |ELV| " +
                   Str(static_cast<long>(cfg.elv.size())));
  } else {
    for (std::size_t i = 0; i < idx.prev_knn.size(); ++i) {
      const std::vector<index::Neighbor>& nbrs = idx.prev_knn[i];
      const int d = cfg.elv[i];
      if (static_cast<int>(nbrs.size()) > cfg.MaxK()) {
        report.Violate("prev_knn[" + Str(static_cast<long>(i)) +
                       "] holds more than MaxK neighbors");
      }
      long prev_t = -1;
      double prev_dist = -1.0;
      bool seen_dup = false, seen_order = false;
      for (const index::Neighbor& nb : nbrs) {
        if (nb.t < 0 || nb.t + d > n) {
          report.Violate("prev_knn[" + Str(static_cast<long>(i)) +
                         "] neighbor t=" + Str(nb.t) + " outside the series");
        }
        if (!std::isfinite(nb.dist) || nb.dist < 0.0) {
          report.Violate("prev_knn[" + Str(static_cast<long>(i)) +
                         "] neighbor t=" + Str(nb.t) +
                         " has an invalid distance");
        }
        if (nb.dist < prev_dist && !seen_order) {
          seen_order = true;
          report.Violate("prev_knn[" + Str(static_cast<long>(i)) +
                         "] not sorted by distance");
        }
        for (const index::Neighbor& other : nbrs) {
          if (&other != &nb && other.t == nb.t && !seen_dup) {
            seen_dup = true;
            report.Violate("prev_knn[" + Str(static_cast<long>(i)) +
                           "] holds duplicate neighbor t=" + Str(nb.t));
          }
        }
        prev_dist = nb.dist;
        prev_t = nb.t;
      }
      (void)prev_t;
    }
  }

  // --- Ensemble adaptive state.
  const std::size_t cells =
      cfg.ekv.size() * cfg.elv.size();
  if (snap.ensemble.cells.size() != cells) {
    report.Violate("ensemble cell count mismatch");
  } else {
    for (std::size_t c = 0; c < cells; ++c) {
      const auto& cell = snap.ensemble.cells[c];
      if (!std::isfinite(cell.weight) || cell.weight < 0.0) {
        report.Violate("ensemble cell " + Str(static_cast<long>(c)) +
                       " weight invalid");
      }
      if (cell.counter < 0 || cell.remaining < 0) {
        report.Violate("ensemble cell " + Str(static_cast<long>(c)) +
                       " sleep bookkeeping negative");
      }
    }
  }
  if (!std::isfinite(snap.ensemble.z_ewma) || snap.ensemble.z_ewma < 0.0 ||
      !std::isfinite(snap.ensemble.vif) || snap.ensemble.vif < 0.0) {
    report.Violate("ensemble calibration EWMA invalid");
  }

  // --- GP warm-start kernel cache.
  if (snap.gp_kernels.size() != cells) {
    report.Violate("gp_kernels size mismatch");
  } else {
    for (std::size_t c = 0; c < cells; ++c) {
      if (!snap.gp_kernels[c].has_value()) continue;
      for (double p : *snap.gp_kernels[c]) {
        if (!std::isfinite(p)) {
          report.Violate("gp_kernels[" + Str(static_cast<long>(c)) +
                         "] has a non-finite log-hyperparameter");
          break;
        }
      }
    }
  }

  // --- Pending forecasts.
  const long now = n - 1;
  long prev_target = 0;
  for (std::size_t p = 0; p < snap.pending.size(); ++p) {
    const auto& pf = snap.pending[p];
    if (pf.target_time <= now || pf.target_time > now + cfg.horizon) {
      report.Violate("pending[" + Str(static_cast<long>(p)) + "] target " +
                     Str(pf.target_time) + " outside (now, now + horizon]");
    }
    if (p > 0 && pf.target_time <= prev_target) {
      report.Violate("pending targets not strictly increasing");
    }
    prev_target = pf.target_time;
    if (pf.grid.rows != static_cast<int>(cfg.ekv.size()) ||
        pf.grid.cols != static_cast<int>(cfg.elv.size())) {
      report.Violate("pending[" + Str(static_cast<long>(p)) +
                     "] grid shape mismatch");
      continue;
    }
    for (int i = 0; i < pf.grid.rows; ++i) {
      for (int j = 0; j < pf.grid.cols; ++j) {
        if (!pf.grid.Has(i, j)) continue;
        const auto& pred = pf.grid.At(i, j);
        if (!std::isfinite(pred.mean) || !std::isfinite(pred.variance) ||
            pred.variance < 0.0) {
          report.Violate("pending[" + Str(static_cast<long>(p)) + "] cell (" +
                         Str(i) + ", " + Str(j) + ") prediction invalid");
        }
      }
    }
    if (!std::isfinite(pf.raw.mean) || !std::isfinite(pf.raw.variance) ||
        pf.raw.variance < 0.0) {
      report.Violate("pending[" + Str(static_cast<long>(p)) +
                     "] raw combination invalid");
    }
  }

  return report.count();
}

int InvariantChecker::CheckCheckpointRoundTrip(
    const std::vector<core::EngineSnapshot>& snapshots,
    const std::string& scratch_dir, std::vector<std::string>* out) {
  Reporter report("roundtrip", out);
  // Harness-internal IO must not consume scheduled fault hits.
  ScopedPause pause;
  const std::string path_a = scratch_dir + "/chaos_roundtrip_a.ckpt";
  const std::string path_b = scratch_dir + "/chaos_roundtrip_b.ckpt";

  Status save = serve::Checkpoint::Save(path_a, snapshots);
  if (!save.ok()) {
    report.Violate("first save failed: " + save.ToString());
    return report.count();
  }
  auto loaded = serve::Checkpoint::Load(path_a);
  if (!loaded.ok()) {
    report.Violate("load of freshly saved checkpoint failed: " +
                   loaded.status().ToString());
    return report.count();
  }
  if (loaded->size() != snapshots.size()) {
    report.Violate("engine count changed across the round trip");
    return report.count();
  }
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    if ((*loaded)[i].index.series != snapshots[i].index.series) {
      report.Violate("engine " + Str(static_cast<long>(i)) +
                     " series changed across the round trip");
    }
    if ((*loaded)[i].index.arena != snapshots[i].index.arena) {
      report.Violate("engine " + Str(static_cast<long>(i)) +
                     " posting arena changed across the round trip");
    }
  }
  save = serve::Checkpoint::Save(path_b, *loaded);
  if (!save.ok()) {
    report.Violate("re-save failed: " + save.ToString());
    return report.count();
  }
  std::string bytes_a, bytes_b;
  if (!ReadFileBytes(path_a, &bytes_a) || !ReadFileBytes(path_b, &bytes_b)) {
    report.Violate("could not read checkpoint files back");
    return report.count();
  }
  if (bytes_a != bytes_b) {
    report.Violate("save -> load -> save is not byte-identical (" +
                   Str(static_cast<long>(bytes_a.size())) + " vs " +
                   Str(static_cast<long>(bytes_b.size())) + " bytes)");
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  return report.count();
}

int InvariantChecker::CheckStoreResidency(const std::string& label,
                                          const store::TieredStateStore& store,
                                          std::vector<std::string>* out) {
  Reporter report(label, out);
  const std::vector<store::TieredStateStore::SlotInfo> slots = store.Inspect();
  std::size_t charged = 0;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const store::TieredStateStore::SlotInfo& info = slots[s];
    if (info.resident != info.engine_present) {
      report.Violate("store sensor " + Str(static_cast<long>(s)) +
                     (info.resident
                          ? " marked RESIDENT but the manager slot is empty"
                          : " marked COLD but a live engine occupies the "
                            "manager slot"));
    }
    if (!info.resident && !info.has_segment) {
      report.Violate("store sensor " + Str(static_cast<long>(s)) +
                     " is COLD without a published spill segment");
    }
    if (info.pins < 0) {
      report.Violate("store sensor " + Str(static_cast<long>(s)) +
                     " has a negative pin count");
    }
    if (info.pins > 0 && !info.resident) {
      report.Violate("store sensor " + Str(static_cast<long>(s)) +
                     " is pinned but not RESIDENT");
    }
    if (info.resident) charged += info.bytes;
  }
  if (charged != store.resident_bytes()) {
    report.Violate("store resident-byte ledger " +
                   Str(static_cast<long>(store.resident_bytes())) +
                   " != per-slot sum " + Str(static_cast<long>(charged)));
  }
  return report.count();
}

}  // namespace chaos
}  // namespace smiler
