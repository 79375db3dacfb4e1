// Plain loops shared by the DSP and reconstruction code: window and
// mean-removal passes, and the striped reductions.
//
// sum and dot are DEFINED over four striped accumulators, acc[j] +=
// x[4i+j] over the 4-aligned prefix, combined as (acc0+acc2) +
// (acc1+acc3), then the tail added sequentially. That order is part of the
// result: the engine's determinism digests pin it, so keep it.
#pragma once

#include <cstddef>

namespace nyqmon::dsp {

/// x[i] *= w[i] (windowing).
inline void mul_inplace(double* x, const double* w, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= w[i];
}

/// x[i] -= c (mean removal).
inline void sub_scalar_inplace(double* x, double c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] -= c;
}

/// Striped 4-accumulator sum; see the file comment for the definition.
inline double sum(const double* x, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  const std::size_t n4 = n - n % 4;
  for (std::size_t i = 0; i < n4; i += 4) {
    a0 += x[i];
    a1 += x[i + 1];
    a2 += x[i + 2];
    a3 += x[i + 3];
  }
  double total = (a0 + a2) + (a1 + a3);
  for (std::size_t i = n4; i < n; ++i) total += x[i];
  return total;
}

/// Striped 4-accumulator inner product: acc[j] += x[4i+j] * y[4i+j].
inline double dot(const double* x, const double* y, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  const std::size_t n4 = n - n % 4;
  for (std::size_t i = 0; i < n4; i += 4) {
    a0 += x[i] * y[i];
    a1 += x[i + 1] * y[i + 1];
    a2 += x[i + 2] * y[i + 2];
    a3 += x[i + 3] * y[i + 3];
  }
  double total = (a0 + a2) + (a1 + a3);
  for (std::size_t i = n4; i < n; ++i) total += x[i] * y[i];
  return total;
}

}  // namespace nyqmon::dsp
