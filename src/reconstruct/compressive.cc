#include "reconstruct/compressive.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "dsp/kernels.h"
#include "util/check.h"

namespace nyqmon::rec {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

// Solve the dense symmetric positive-definite system A x = b in place via
// Gaussian elimination with partial pivoting. Dimensions here are
// 2*sparsity+1 (tiny), so numerical sophistication is unnecessary.
std::vector<double> solve_dense(std::vector<std::vector<double>> a,
                                std::vector<double> b) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    NYQMON_ENSURE(std::abs(a[col][col]) > 1e-30);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a[r][col] / a[col][col];
      for (std::size_t c = col; c < n; ++c) a[r][c] -= factor * a[col][c];
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t row = n; row-- > 0;) {
    double acc = b[row];
    for (std::size_t c = row + 1; c < n; ++c) acc -= a[row][c] * x[c];
    x[row] = acc / a[row][row];
  }
  return x;
}

// y[i] += a * x[i].
void axpy(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

}  // namespace

double CompressiveModel::value(double t) const {
  double v = dc;
  for (const auto& atom : atoms) {
    const double arg = kTwoPi * atom.frequency_hz * t;
    v += atom.cos_amp * std::cos(arg) + atom.sin_amp * std::sin(arg);
  }
  return v;
}

sig::RegularSeries CompressiveModel::sample(double t0, double dt,
                                            std::size_t n) const {
  NYQMON_CHECK(dt > 0.0);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = value(t0 + static_cast<double>(i) * dt);
  return sig::RegularSeries(t0, dt, std::move(v));
}

CompressiveModel compressive_recover(const sig::TimeSeries& samples,
                                     const CompressiveConfig& config) {
  NYQMON_CHECK_MSG(samples.size() >= 8, "compressive_recover needs >= 8 samples");
  NYQMON_CHECK(config.sparsity >= 1);
  NYQMON_CHECK(config.grid_bins >= 2);
  NYQMON_CHECK(config.max_frequency_hz > 0.0);
  NYQMON_CHECK_MSG(2 * config.sparsity + 1 < samples.size(),
                   "sparsity too high for the sample budget");

  const std::size_t n = samples.size();
  std::vector<double> t(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = samples[i].t;
    y[i] = samples[i].v;
  }

  CompressiveModel model;
  // DC first (always in the model).
  const double mean = dsp::sum(y.data(), n) / static_cast<double>(n);
  model.dc = mean;

  std::vector<double> residual(y);
  dsp::sub_scalar_inplace(residual.data(), mean, n);
  const double input_energy = dsp::dot(residual.data(), residual.data(), n);
  if (input_energy == 0.0) {
    model.residual_energy_fraction = 0.0;
    return model;
  }

  // Scratch for one candidate's cos/sin columns (greedy scoring) and for
  // the design matrix columns of the joint solve. Two passes per
  // candidate: trig fills the columns, then dsp::dot computes every
  // correlation.
  const std::size_t max_dims = 1 + 2 * config.sparsity;
  std::vector<double> scratch((2 + max_dims) * n);
  double* cand_c = scratch.data();
  double* cand_s = cand_c + n;
  double* columns = cand_s + n;

  std::vector<double> selected;  // chosen frequencies
  for (std::size_t iter = 0; iter < config.sparsity; ++iter) {
    // Greedy step: frequency whose cos/sin pair best matches the residual
    // (Lomb-like correlation).
    double best_score = -1.0;
    double best_f = 0.0;
    for (std::size_t k = 0; k < config.grid_bins; ++k) {
      const double f = config.max_frequency_hz *
                       static_cast<double>(k + 1) /
                       static_cast<double>(config.grid_bins);
      if (std::find_if(selected.begin(), selected.end(), [f](double g) {
            return std::abs(g - f) < 1e-15;
          }) != selected.end()) {
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const double arg = kTwoPi * f * t[i];
        cand_c[i] = std::cos(arg);
        cand_s[i] = std::sin(arg);
      }
      const double rc = dsp::dot(residual.data(), cand_c, n);
      const double rs = dsp::dot(residual.data(), cand_s, n);
      const double cc = dsp::dot(cand_c, cand_c, n);
      const double ss = dsp::dot(cand_s, cand_s, n);
      double score = 0.0;
      if (cc > 0.0) score += rc * rc / cc;
      if (ss > 0.0) score += rs * rs / ss;
      if (score > best_score) {
        best_score = score;
        best_f = f;
      }
    }
    selected.push_back(best_f);

    // Joint least squares over DC + all selected cos/sin atoms.
    // Materialize the design-matrix columns once, then every Gram entry is
    // a dot product — the old formulation recomputed cos/sin for each of
    // the n * dims^2 / 2 matrix entries.
    const std::size_t dims = 1 + 2 * selected.size();
    for (std::size_t i = 0; i < n; ++i) columns[i] = 1.0;
    for (std::size_t a = 0; a < selected.size(); ++a) {
      double* col_c = columns + (1 + 2 * a) * n;
      double* col_s = columns + (2 + 2 * a) * n;
      for (std::size_t i = 0; i < n; ++i) {
        const double arg = kTwoPi * selected[a] * t[i];
        col_c[i] = std::cos(arg);
        col_s[i] = std::sin(arg);
      }
    }
    std::vector<std::vector<double>> gram(dims, std::vector<double>(dims, 0.0));
    std::vector<double> rhs(dims, 0.0);
    for (std::size_t a = 0; a < dims; ++a) {
      const double* col_a = columns + a * n;
      rhs[a] = dsp::dot(col_a, y.data(), n);
      for (std::size_t b = a; b < dims; ++b)
        gram[a][b] = dsp::dot(col_a, columns + b * n, n);
    }
    for (std::size_t a = 0; a < dims; ++a)
      for (std::size_t b = 0; b < a; ++b) gram[a][b] = gram[b][a];
    const auto coeff = solve_dense(gram, rhs);

    model.dc = coeff[0];
    model.atoms.clear();
    for (std::size_t a = 0; a < selected.size(); ++a) {
      CompressiveModel::Atom atom;
      atom.frequency_hz = selected[a];
      atom.cos_amp = coeff[1 + 2 * a];
      atom.sin_amp = coeff[2 + 2 * a];
      model.atoms.push_back(atom);
    }

    // Update the residual (y minus the fitted columns — axpy over the
    // already-materialized design matrix) and test the stopping rule.
    std::copy(y.begin(), y.end(), residual.begin());
    dsp::sub_scalar_inplace(residual.data(), coeff[0], n);
    for (std::size_t d = 1; d < dims; ++d)
      axpy(-coeff[d], columns + d * n, residual.data(), n);
    const double res_energy = dsp::dot(residual.data(), residual.data(), n);
    model.residual_energy_fraction = res_energy / input_energy;
    if (model.residual_energy_fraction < config.residual_tolerance) break;
  }
  return model;
}

}  // namespace nyqmon::rec
