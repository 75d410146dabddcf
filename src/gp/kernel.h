#ifndef SMILER_GP_KERNEL_H_
#define SMILER_GP_KERNEL_H_

#include <array>
#include <cstddef>
#include <vector>

#include "common/status.h"
#include "la/matrix.h"
#include "simgpu/device.h"

namespace smiler {
namespace gp {

/// \brief Squared-exponential covariance with additive noise (Eqn 18):
///
///   c(xa, xb) = theta0^2 * exp(-||xa - xb||^2 / (2 theta1^2))
///               + delta_ab * theta2^2
///
/// Hyperparameters are stored and optimized in log space so positivity is
/// structural. theta1 is the characteristic length-scale; theta2^2 the
/// observation noise.
///
/// The kernel separates *geometry* from *hyperparameters*: the pairwise
/// squared distances of a training set (PairwiseSquaredDistances) depend
/// only on the inputs, so one Gram matrix serves every covariance build
/// across hyperparameter updates — and, in the engine, across every
/// ensemble cell that shares the same kNN inputs.
class SeKernel {
 public:
  /// Number of hyperparameters.
  static constexpr int kNumParams = 3;

  SeKernel() : SeKernel(0.0, 0.0, -1.0) {}
  /// Constructs from log(theta0), log(theta1), log(theta2).
  SeKernel(double log_theta0, double log_theta1, double log_theta2)
      : log_params_{log_theta0, log_theta1, log_theta2} {}

  /// Data-driven initialisation: theta0^2 ~ var(y), theta1 ~ median
  /// pairwise input distance, theta2^2 ~ 10% of var(y). Gives the online
  /// trainer a seed in the right order of magnitude for any sensor scale.
  /// \p gram, when non-null, supplies the pairwise squared distances of
  /// \p x (a cached Gram) so the median needs no recomputation.
  static SeKernel Heuristic(const la::Matrix& x, const std::vector<double>& y,
                            const la::ConstMatrixView* gram = nullptr);

  const std::array<double, kNumParams>& log_params() const {
    return log_params_;
  }
  void set_log_params(const std::array<double, kNumParams>& p) {
    log_params_ = p;
  }

  double theta0() const;
  double theta1() const;
  double theta2() const;

  /// Covariance of two distinct inputs given their squared distance.
  double CovFromSqDist(double sq_dist) const;

  /// Prior variance of a single input: c(x, x) = theta0^2 + theta2^2.
  double SelfCovariance() const;

  /// k x k covariance matrix over the rows of \p x (noise on diagonal).
  /// \p sq_dist, when non-null, receives the pairwise squared distances
  /// for reuse by gradient computations.
  la::Matrix Covariance(const la::Matrix& x, la::Matrix* sq_dist = nullptr)
      const;

  /// k x k covariance matrix from an already computed pairwise
  /// squared-distance matrix (noise on diagonal). The distance-free hot
  /// path: every hyperparameter evaluation against a cached Gram costs
  /// only the exponentials.
  la::Matrix CovarianceFromSqDist(la::ConstMatrixView sq_dist) const;

  /// Cross-covariance vector c0 between every row of \p x and test input
  /// \p xstar (length = x.cols()).
  std::vector<double> CrossCovariance(const la::Matrix& x,
                                      const double* xstar) const;

  /// dC/dlog(theta_param) over the rows of \p x, given the cached pairwise
  /// squared distances from Covariance(). \p param in [0, kNumParams).
  la::Matrix CovarianceGrad(la::ConstMatrixView sq_dist, int param) const;

 private:
  std::array<double, kNumParams> log_params_;
};

/// Squared Euclidean distance between two length-\p dim vectors.
double SquaredDistance(const double* a, const double* b, std::size_t dim);

/// \brief Symmetric k x k matrix of pairwise squared distances between the
/// rows of \p x — the hyperparameter-independent Gram that Covariance /
/// CovarianceGrad / Heuristic consume. Computed entrywise with
/// SquaredDistance, so a cached Gram is bitwise-identical to what each
/// consumer would have computed itself (and a leading submatrix view of it
/// is exactly the Gram of the corresponding row prefix).
la::Matrix PairwiseSquaredDistances(const la::Matrix& x);

/// \brief PairwiseSquaredDistances routed through \p device as the
/// "gp.gram" kernel, so SE-kernel Gram evaluation shows up in per-kernel
/// profiling. One block computes one row's upper-triangle entries with
/// SquaredDistance, so the result is bitwise-identical to the host
/// function (the Gram-cache contract: a cached Gram matches what each
/// consumer would compute). Fails only when the launch itself fails (e.g.
/// an injected `simgpu.launch` fault); callers fall back to the host
/// function.
Result<la::Matrix> PairwiseSquaredDistancesOnDevice(simgpu::Device* device,
                                                    const la::Matrix& x);

/// \brief One job of a batched Gram computation: the pairwise squared
/// distances of `x`'s rows are written to `*out` (which is resized to
/// x.rows() x x.rows()).
struct GramBatchJob {
  const la::Matrix* x = nullptr;
  la::Matrix* out = nullptr;
};

/// \brief Computes every job's Gram in ONE "gp.gram_batch" device launch
/// (simgpu::BatchGrid maps the fused flat grid back to per-job rows), so
/// a serve-layer micro-batch of N sensors pays one launch instead of N.
/// Per entry the arithmetic is exactly PairwiseSquaredDistancesOnDevice's
/// (one block per row's upper triangle), so each job's result is
/// bitwise-identical to a solo launch (and to the host function). Jobs
/// with fewer than 2 rows get their zero matrix without contributing
/// blocks. On launch failure no job's output is usable; callers fall back
/// to the host function per job, mirroring the solo path's degradation
/// contract.
Status PairwiseSquaredDistancesOnDeviceBatch(
    simgpu::Device* device, const std::vector<GramBatchJob>& jobs);

}  // namespace gp
}  // namespace smiler

#endif  // SMILER_GP_KERNEL_H_
