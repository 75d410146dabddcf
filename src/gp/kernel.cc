#include "gp/kernel.h"

#include <algorithm>
#include <cmath>

#include "common/math_utils.h"
#include "simgpu/batch_launch.h"

namespace smiler {
namespace gp {

double SquaredDistance(const double* a, const double* b, std::size_t dim) {
  double s = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

la::Matrix PairwiseSquaredDistances(const la::Matrix& x) {
  const std::size_t k = x.rows();
  la::Matrix dists(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      const double d = SquaredDistance(x.Row(i), x.Row(j), x.cols());
      dists(i, j) = d;
      dists(j, i) = d;
    }
  }
  return dists;
}

Result<la::Matrix> PairwiseSquaredDistancesOnDevice(simgpu::Device* device,
                                                    const la::Matrix& x) {
  const std::size_t k = x.rows();
  const std::size_t dim = x.cols();
  la::Matrix dists(k, k);
  if (device == nullptr || k < 2) return dists;

  // Block i fills row i's strict upper triangle entrywise (the host
  // function's arithmetic exactly) and mirrors each entry. Blocks
  // touch disjoint entries: (i, j) belongs to block min(i, j).
  const simgpu::Kernel grid_kernel = [&](simgpu::BlockContext& ctx) {
    const std::size_t i = static_cast<std::size_t>(ctx.block_id);
    for (std::size_t j = i + 1; j < k; ++j) {
      const double d = SquaredDistance(x.Row(i), x.Row(j), dim);
      dists(i, j) = d;
      dists(j, i) = d;
    }
  };
  SMILER_RETURN_NOT_OK(
      device->Launch("gp.gram", static_cast<int>(k), 1, grid_kernel));
  return dists;
}

Status PairwiseSquaredDistancesOnDeviceBatch(
    simgpu::Device* device, const std::vector<GramBatchJob>& jobs) {
  // Size every output up front (k < 2 jobs are already done: their Gram
  // is the zero matrix, same as the solo function without a launch).
  simgpu::BatchGrid grid;
  for (const GramBatchJob& job : jobs) {
    const std::size_t k = job.x->rows();
    *job.out = la::Matrix(k, k);
    grid.AddJob(k >= 2 ? static_cast<int>(k) : 0);
  }
  if (device == nullptr || grid.total_blocks() == 0) return Status::OK();

  // Flat block -> (job, row i); the block fills row i's strict upper
  // triangle of its job's Gram and mirrors it — byte-for-byte the solo
  // "gp.gram" block program, just addressed through the batch map.
  const simgpu::Kernel grid_kernel = [&](simgpu::BlockContext& ctx) {
    const simgpu::BatchGrid::Pos pos = grid.Locate(ctx.block_id);
    const la::Matrix& x = *jobs[pos.job].x;
    la::Matrix& dists = *jobs[pos.job].out;
    const std::size_t k = x.rows();
    const std::size_t dim = x.cols();
    const std::size_t i = static_cast<std::size_t>(pos.local);
    for (std::size_t j = i + 1; j < k; ++j) {
      const double d = SquaredDistance(x.Row(i), x.Row(j), dim);
      dists(i, j) = d;
      dists(j, i) = d;
    }
  };
  return device->Launch("gp.gram_batch", grid.total_blocks(), 1, grid_kernel);
}

SeKernel SeKernel::Heuristic(const la::Matrix& x, const std::vector<double>& y,
                             const la::ConstMatrixView* gram) {
  const double var_y = std::max(Variance(y), 1e-6);
  // Median pairwise distance as the length-scale seed.
  std::vector<double> dists;
  const std::size_t k = x.rows();
  dists.reserve(k * (k - 1) / 2);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      const double sq = (gram != nullptr)
                            ? (*gram)(i, j)
                            : SquaredDistance(x.Row(i), x.Row(j), x.cols());
      dists.push_back(std::sqrt(sq));
    }
  }
  double length = 1.0;
  if (!dists.empty()) {
    std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                     dists.end());
    length = std::max(dists[dists.size() / 2], 1e-3);
  }
  return SeKernel(0.5 * std::log(var_y), std::log(length),
                  0.5 * std::log(0.1 * var_y));
}

double SeKernel::theta0() const { return std::exp(log_params_[0]); }
double SeKernel::theta1() const { return std::exp(log_params_[1]); }
double SeKernel::theta2() const { return std::exp(log_params_[2]); }

double SeKernel::CovFromSqDist(double sq_dist) const {
  const double t0 = theta0();
  const double t1 = theta1();
  return t0 * t0 * std::exp(-0.5 * sq_dist / (t1 * t1));
}

double SeKernel::SelfCovariance() const {
  const double t0 = theta0();
  const double t2 = theta2();
  return t0 * t0 + t2 * t2;
}

la::Matrix SeKernel::Covariance(const la::Matrix& x,
                                la::Matrix* sq_dist) const {
  la::Matrix dists = PairwiseSquaredDistances(x);
  la::Matrix cov = CovarianceFromSqDist(dists);
  if (sq_dist != nullptr) *sq_dist = std::move(dists);
  return cov;
}

la::Matrix SeKernel::CovarianceFromSqDist(la::ConstMatrixView sq_dist) const {
  const std::size_t k = sq_dist.rows();
  la::Matrix cov(k, k);
  const double noise = theta2() * theta2();
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i; j < k; ++j) {
      const double c = CovFromSqDist(sq_dist(i, j));
      cov(i, j) = c;
      cov(j, i) = c;
    }
    cov(i, i) += noise;
  }
  return cov;
}

std::vector<double> SeKernel::CrossCovariance(const la::Matrix& x,
                                              const double* xstar) const {
  std::vector<double> c0(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    c0[i] = CovFromSqDist(SquaredDistance(x.Row(i), xstar, x.cols()));
  }
  return c0;
}

la::Matrix SeKernel::CovarianceGrad(la::ConstMatrixView sq_dist,
                                    int param) const {
  const std::size_t k = sq_dist.rows();
  la::Matrix grad(k, k);
  const double t1_sq = theta1() * theta1();
  switch (param) {
    case 0:
      // d/dlog(t0) of t0^2 exp(.) = 2 * t0^2 exp(.)
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
          grad(i, j) = 2.0 * CovFromSqDist(sq_dist(i, j));
        }
      }
      break;
    case 1:
      // d/dlog(t1): t0^2 exp(-r/(2 t1^2)) * (r / t1^2)
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
          grad(i, j) =
              CovFromSqDist(sq_dist(i, j)) * (sq_dist(i, j) / t1_sq);
        }
      }
      break;
    case 2: {
      // d/dlog(t2) of delta_ij t2^2 = 2 t2^2 on the diagonal.
      const double g = 2.0 * theta2() * theta2();
      for (std::size_t i = 0; i < k; ++i) grad(i, i) = g;
      break;
    }
    default:
      break;
  }
  return grad;
}

}  // namespace gp
}  // namespace smiler
