#include "src/svm/one_class_svm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "src/util/thread_pool.h"

namespace chameleon::svm {
namespace {

/// Rows per ParallelFor chunk when materializing the Gram matrix. The
/// upper triangle makes early rows more expensive, so chunks stay small
/// to load-balance.
constexpr int64_t kGramGrain = 16;

/// Points per chunk for batch scoring.
constexpr int64_t kScoreGrain = 32;

/// Don't bother spinning up workers for Gram matrices this small.
constexpr size_t kMinParallelGramCells = 1u << 14;

/// Kernel matrix with optional full materialization: row access is O(1)
/// when cached, O(n * dim) otherwise.
class KernelCache {
 public:
  KernelCache(const std::vector<std::vector<double>>& points,
              const Kernel& kernel, util::ThreadPool* pool)
      : points_(points), kernel_(kernel) {
    const size_t n = points.size();
    // ~64 MB of doubles at most.
    cache_full_ = n * n <= (8u << 20);
    if (!cache_full_) return;
    matrix_.assign(n * n, 0.0);
    // Row i fills its upper-triangle segment and mirrors it into column
    // i, so every cell is written by exactly one row — chunking rows is
    // race-free and the result is identical at every worker count.
    auto fill_rows = [&](int64_t begin, int64_t end, int64_t /*chunk*/) {
      for (size_t i = static_cast<size_t>(begin);
           i < static_cast<size_t>(end); ++i) {
        for (size_t j = i; j < n; ++j) {
          const double k = kernel_.Evaluate(points_[i], points_[j]);
          matrix_[i * n + j] = k;
          matrix_[j * n + i] = k;
        }
      }
    };
    if (pool != nullptr && pool->num_threads() > 1 &&
        n * n >= kMinParallelGramCells) {
      pool->ParallelFor(static_cast<int64_t>(n), kGramGrain, fill_rows);
    } else {
      fill_rows(0, static_cast<int64_t>(n), 0);
    }
  }

  double At(size_t i, size_t j) const {
    if (cache_full_) return matrix_[i * points_.size() + j];
    return kernel_.Evaluate(points_[i], points_[j]);
  }

  /// Fills `row` with K(i, *).
  void Row(size_t i, std::vector<double>* row) const {
    const size_t n = points_.size();
    row->resize(n);
    if (cache_full_) {
      std::copy(matrix_.begin() + i * n, matrix_.begin() + (i + 1) * n,
                row->begin());
      return;
    }
    for (size_t j = 0; j < n; ++j) {
      (*row)[j] = kernel_.Evaluate(points_[i], points_[j]);
    }
  }

 private:
  const std::vector<std::vector<double>>& points_;
  Kernel kernel_;
  bool cache_full_ = false;
  std::vector<double> matrix_;
};

}  // namespace

util::Result<OneClassSvm> OneClassSvm::Train(
    const std::vector<std::vector<double>>& points,
    const OneClassSvmOptions& options) {
  const size_t n = points.size();
  if (n < 2) {
    return util::Status::InvalidArgument(
        "OneClassSvm needs at least 2 training points");
  }
  if (options.nu <= 0.0 || options.nu > 1.0) {
    return util::Status::InvalidArgument("nu must be in (0, 1]");
  }
  const size_t dim = points[0].size();
  for (const auto& p : points) {
    if (p.size() != dim || dim == 0) {
      return util::Status::InvalidArgument(
          "training points must share a non-zero dimension");
    }
  }

  // Optional per-dimension scale normalization (fitted on the training
  // set). Scale-only — see the header comment on `standardize`.
  std::vector<double> feature_mean(dim, 0.0);
  std::vector<double> feature_scale(dim, 1.0);
  std::vector<std::vector<double>> standardized;
  const std::vector<std::vector<double>>* train_points = &points;
  if (options.standardize) {
    for (const auto& p : points) {
      for (size_t k = 0; k < dim; ++k) feature_mean[k] += p[k];
    }
    for (double& v : feature_mean) v /= static_cast<double>(n);
    std::vector<double> variance(dim, 0.0);
    for (const auto& p : points) {
      for (size_t k = 0; k < dim; ++k) {
        const double d = p[k] - feature_mean[k];
        variance[k] += d * d;
      }
    }
    for (size_t k = 0; k < dim; ++k) {
      feature_scale[k] = std::sqrt(variance[k] / static_cast<double>(n));
      if (feature_scale[k] < 1e-9) feature_scale[k] = 1.0;
    }
    // The mean is only used to estimate scales; queries are not centered.
    std::fill(feature_mean.begin(), feature_mean.end(), 0.0);
    standardized.reserve(n);
    for (const auto& p : points) {
      std::vector<double> z(dim);
      for (size_t k = 0; k < dim; ++k) {
        z[k] = p[k] / feature_scale[k];
      }
      standardized.push_back(std::move(z));
    }
    train_points = &standardized;
  }

  const double upper = 1.0 / (options.nu * static_cast<double>(n));
  const int num_threads = util::ThreadPool::ResolveThreadCount(
      options.num_threads);
  std::unique_ptr<util::ThreadPool> pool;
  if (num_threads > 1 && n * n >= kMinParallelGramCells) {
    pool = std::make_unique<util::ThreadPool>(num_threads);
  }
  KernelCache cache(*train_points, options.kernel, pool.get());
  pool.reset();  // SMO below is inherently sequential.

  // LIBSVM initialization: the first floor(nu*n) alphas at the upper
  // bound, the next takes the remainder so that sum(alpha) = 1.
  std::vector<double> alpha(n, 0.0);
  {
    double remaining = 1.0;
    for (size_t i = 0; i < n && remaining > 0.0; ++i) {
      alpha[i] = std::min(upper, remaining);
      remaining -= alpha[i];
    }
  }

  // Gradient of 1/2 a^T Q a is g = Q a.
  std::vector<double> gradient(n, 0.0);
  {
    std::vector<double> row;
    for (size_t i = 0; i < n; ++i) {
      if (alpha[i] == 0.0) continue;
      cache.Row(i, &row);
      for (size_t t = 0; t < n; ++t) gradient[t] += alpha[i] * row[t];
    }
  }

  OneClassSvmStats stats;
  stats.num_points = static_cast<int64_t>(n);
  std::vector<double> row_i;
  std::vector<double> row_j;
  constexpr double kTau = 1e-12;

  for (stats.iterations = 0; stats.iterations < options.max_iterations;
       ++stats.iterations) {
    // Maximal violating pair: i can grow (alpha_i < C) with minimal
    // gradient, j can shrink (alpha_j > 0) with maximal gradient.
    int best_i = -1;
    int best_j = -1;
    double min_grow = std::numeric_limits<double>::infinity();
    double max_shrink = -std::numeric_limits<double>::infinity();
    for (size_t t = 0; t < n; ++t) {
      if (alpha[t] < upper - kTau && gradient[t] < min_grow) {
        min_grow = gradient[t];
        best_i = static_cast<int>(t);
      }
      if (alpha[t] > kTau && gradient[t] > max_shrink) {
        max_shrink = gradient[t];
        best_j = static_cast<int>(t);
      }
    }
    if (best_i < 0 || best_j < 0 || max_shrink - min_grow < options.tolerance) {
      break;  // KKT satisfied.
    }

    const size_t i = static_cast<size_t>(best_i);
    const size_t j = static_cast<size_t>(best_j);
    cache.Row(i, &row_i);
    cache.Row(j, &row_j);

    double curvature = row_i[i] + row_j[j] - 2.0 * row_i[j];
    if (curvature <= kTau) curvature = kTau;
    double delta = (gradient[j] - gradient[i]) / curvature;
    delta = std::min(delta, upper - alpha[i]);
    delta = std::min(delta, alpha[j]);
    if (delta <= kTau) {
      // Numerically stuck on this pair; the KKT gap check above will
      // terminate next time around once the tolerance is met.
      break;
    }
    alpha[i] += delta;
    alpha[j] -= delta;
    for (size_t t = 0; t < n; ++t) {
      gradient[t] += delta * (row_i[t] - row_j[t]);
    }
  }

  // rho: at optimality w.phi(x_t) = gradient_t; margin SVs sit exactly on
  // the boundary. Average over them (fallback: midpoint of bound groups).
  double rho_sum = 0.0;
  int rho_count = 0;
  for (size_t t = 0; t < n; ++t) {
    if (alpha[t] > kTau && alpha[t] < upper - kTau) {
      rho_sum += gradient[t];
      ++rho_count;
    }
  }
  double rho;
  if (rho_count > 0) {
    rho = rho_sum / rho_count;
  } else {
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    for (size_t t = 0; t < n; ++t) {
      if (alpha[t] >= upper - kTau) lo = std::max(lo, gradient[t]);
      if (alpha[t] <= kTau) hi = std::min(hi, gradient[t]);
    }
    if (!std::isfinite(lo)) lo = hi;
    if (!std::isfinite(hi)) hi = lo;
    rho = 0.5 * (lo + hi);
  }

  OneClassSvm model;
  model.kernel_ = options.kernel;
  model.rho_ = rho;
  model.decision_threshold_ = options.decision_threshold;
  model.standardize_ = options.standardize;
  model.feature_mean_ = std::move(feature_mean);
  model.feature_scale_ = std::move(feature_scale);
  for (size_t t = 0; t < n; ++t) {
    if (alpha[t] > kTau) {
      model.support_vectors_.push_back((*train_points)[t]);
      model.alphas_.push_back(alpha[t]);
      ++stats.num_support_vectors;
      if (alpha[t] < upper - kTau) ++stats.num_margin_support_vectors;
    }
  }
  stats.rho = rho;
  model.stats_ = stats;
  return model;
}

std::vector<double> OneClassSvm::Standardized(
    const std::vector<double>& x) const {
  std::vector<double> z(x.size());
  for (size_t k = 0; k < x.size(); ++k) {
    z[k] = (x[k] - feature_mean_[k]) / feature_scale_[k];
  }
  return z;
}

double OneClassSvm::DecisionValue(const std::vector<double>& x) const {
  const std::vector<double>& query = standardize_ ? Standardized(x) : x;
  double sum = 0.0;
  for (size_t s = 0; s < support_vectors_.size(); ++s) {
    sum += alphas_[s] * kernel_.Evaluate(support_vectors_[s], query);
  }
  return sum - rho_;
}

std::vector<double> OneClassSvm::DecisionValues(
    const std::vector<std::vector<double>>& points, int num_threads) const {
  std::vector<double> values(points.size(), 0.0);
  const int threads = util::ThreadPool::ResolveThreadCount(num_threads);
  auto score = [&](int64_t begin, int64_t end, int64_t /*chunk*/) {
    for (int64_t i = begin; i < end; ++i) {
      values[i] = DecisionValue(points[i]);
    }
  };
  if (threads > 1 && static_cast<int64_t>(points.size()) > kScoreGrain) {
    util::ThreadPool pool(threads);
    pool.ParallelFor(static_cast<int64_t>(points.size()), kScoreGrain, score);
  } else {
    score(0, static_cast<int64_t>(points.size()), 0);
  }
  return values;
}

bool OneClassSvm::Accepts(const std::vector<double>& x) const {
  return Accepts(DecisionValue(x));
}

}  // namespace chameleon::svm
