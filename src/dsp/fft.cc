#include "dsp/fft.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "dsp/simd.h"
#include "dsp/workspace.h"
#include "util/check.h"

namespace nyqmon::dsp {

namespace {

constexpr double kPi = std::numbers::pi;

// Bit-reversal permutation for the iterative radix-2 FFT.
void bit_reverse_permute(cdouble* x, std::size_t n) {
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
}

// Bluestein chirp-z transform: DFT of arbitrary length N via a circular
// convolution of length M = next_pow2(2N-1). The chirp and the forward FFT
// of the b sequence come from the per-thread plan cache, so a steady-state
// call performs two radix-2 FFTs (down from three) and no trig.
std::vector<cdouble> bluestein(std::span<const cdouble> x, bool inverse) {
  const std::size_t n = x.size();
  NYQMON_ENSURE(n >= 1);
  const auto& plan = this_thread_workspace().bluestein_plan(n, inverse);
  const auto& k = simd::ops();

  std::vector<cdouble> a(plan.m);  // zero padding past n
  k.complex_mul(a.data(), x.data(), plan.chirp.data(), n);

  fft_radix2_run(a.data(), plan.m, /*inverse=*/false);
  k.complex_mul_inplace(a.data(), plan.b_fft.data(), plan.m);
  fft_radix2_run(a.data(), plan.m, /*inverse=*/true);

  std::vector<cdouble> out(n);
  k.complex_mul(out.data(), a.data(), plan.chirp.data(), n);
  if (inverse)
    k.div_scalar_complex_inplace(out.data(), static_cast<double>(n), n);
  return out;
}

std::vector<cdouble> transform(std::span<const cdouble> x, bool inverse) {
  NYQMON_CHECK_MSG(!x.empty(), "FFT of empty sequence");
  if (is_power_of_two(x.size())) {
    std::vector<cdouble> out(x.begin(), x.end());
    fft_radix2_run(out.data(), out.size(), inverse);
    return out;
  }
  return bluestein(x, inverse);
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  NYQMON_CHECK(n >= 1);
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_radix2_run(cdouble* x, std::size_t n, bool inverse) {
  NYQMON_CHECK_MSG(is_power_of_two(n),
                   "radix-2 FFT requires power-of-two length");
  bit_reverse_permute(x, n);

  const auto& plan = this_thread_workspace().radix2_plan(n);
  const cdouble* tw = (inverse ? plan.inverse : plan.forward).data();
  const auto& k = simd::ops();
  std::size_t stage_off = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len)
      k.fft_butterfly_block(x + i, tw + stage_off, half);
    stage_off += half;
  }

  if (inverse) k.div_scalar_complex_inplace(x, static_cast<double>(n), n);
}

std::vector<cdouble> fft(std::span<const cdouble> x) {
  return transform(x, /*inverse=*/false);
}

std::vector<cdouble> ifft(std::span<const cdouble> x) {
  return transform(x, /*inverse=*/true);
}

std::vector<cdouble> fft_real(std::span<const double> x) {
  std::vector<cdouble> cx(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) cx[i] = cdouble(x[i], 0.0);
  return fft(cx);
}

std::vector<cdouble> rfft(std::span<const double> x) {
  const std::size_t n = x.size();
  NYQMON_CHECK_MSG(n >= 1, "FFT of empty sequence");
  // Packed real FFT: for even n, fold the real sequence into an n/2-point
  // complex sequence z[k] = x[2k] + i*x[2k+1], transform once, and unpack
  // with the split formula — half the work of the generic complex path.
  if (n >= 4 && n % 2 == 0) {
    const std::size_t half = n / 2;
    std::vector<cdouble> z(half);
    for (std::size_t k = 0; k < half; ++k)
      z[k] = cdouble(x[2 * k], x[2 * k + 1]);
    if (is_power_of_two(half))
      fft_radix2_run(z.data(), half, /*inverse=*/false);
    else
      z = bluestein(z, /*inverse=*/false);

    // Fetched after the transform: a plan build inside it may flush the
    // plan cache, which would free a table taken before.
    const auto& tw = this_thread_workspace().rfft_unpack_table(n);
    std::vector<cdouble> out(half + 1);
    for (std::size_t k = 0; k <= half; ++k) {
      const std::size_t k1 = k % half;
      const std::size_t k2 = (half - k1) % half;
      const double ar = z[k1].real(), ai = z[k1].imag();
      const double br = z[k2].real(), bi = -z[k2].imag();  // conj
      // Even/odd halves of the original sequence's spectrum:
      // even = (a + b)/2, odd = -i/2 * (a - b), out = even + tw[k] * odd.
      const double er = 0.5 * (ar + br), ei = 0.5 * (ai + bi);
      const double odr = 0.5 * (ai - bi), odi = -0.5 * (ar - br);
      const double twr = tw[k].real(), twi = tw[k].imag();
      out[k] = cdouble(er + (twr * odr - twi * odi),
                       ei + (twr * odi + twi * odr));
    }
    return out;
  }
  auto full = fft_real(x);
  full.resize(n / 2 + 1);
  return full;
}

std::vector<double> irfft(std::span<const cdouble> half, std::size_t n) {
  NYQMON_CHECK(n >= 1);
  NYQMON_CHECK_MSG(half.size() == n / 2 + 1,
                   "irfft: half-spectrum size mismatch");
  std::vector<cdouble> full(n);
  for (std::size_t k = 0; k < half.size(); ++k) full[k] = half[k];
  for (std::size_t k = half.size(); k < n; ++k)
    full[k] = std::conj(full[n - k]);
  if (is_power_of_two(n))
    fft_radix2_run(full.data(), n, /*inverse=*/true);
  else
    full = bluestein(full, /*inverse=*/true);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = full[i].real();
  return out;
}

std::vector<cdouble> dft_reference(std::span<const cdouble> x) {
  const std::size_t n = x.size();
  NYQMON_CHECK(n >= 1);
  std::vector<cdouble> out(n, cdouble(0, 0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * kPi * static_cast<double>(k) *
                           static_cast<double>(t) / static_cast<double>(n);
      out[k] += x[t] * cdouble(std::cos(angle), std::sin(angle));
    }
  }
  return out;
}

}  // namespace nyqmon::dsp
