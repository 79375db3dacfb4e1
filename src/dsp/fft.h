// Fast Fourier Transform.
//
// nyqmon implements its own FFT so the library has no external DSP
// dependency:
//   * power-of-two lengths: iterative radix-2 Cooley-Tukey (in place);
//   * arbitrary lengths: Bluestein's chirp-z algorithm, which re-expresses a
//     length-N DFT as a circular convolution carried out with a
//     power-of-two FFT of length >= 2N-1.
//
// Conventions: forward transform X[k] = sum_n x[n] e^{-2*pi*i*k*n/N} with no
// scaling; the inverse applies the conjugate kernel and divides by N, so
// ifft(fft(x)) == x.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace nyqmon::dsp {

using cdouble = std::complex<double>;

/// True iff n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n (n >= 1).
std::size_t next_power_of_two(std::size_t n);

/// In-place radix-2 FFT of x[0, n); n must be a power of two. `inverse`
/// applies the conjugate kernel and the 1/N scaling. Twiddle factors come
/// from the calling thread's Workspace plan cache and the butterflies run
/// through the dsp::simd dispatch table.
void fft_radix2_run(cdouble* x, std::size_t n, bool inverse);

/// Forward DFT of arbitrary length (radix-2 when possible, Bluestein
/// otherwise). Returns the complex spectrum of length x.size().
std::vector<cdouble> fft(std::span<const cdouble> x);

/// Inverse DFT of arbitrary length; returns a sequence with
/// ifft(fft(x)) == x (element-wise, up to floating-point error).
std::vector<cdouble> ifft(std::span<const cdouble> x);

/// Forward DFT of a real sequence; returns the full length-N complex
/// spectrum (conjugate-symmetric).
std::vector<cdouble> fft_real(std::span<const double> x);

/// Forward DFT of a real sequence returning only the one-sided half
/// spectrum: bins 0..floor(N/2), i.e. floor(N/2)+1 bins.
std::vector<cdouble> rfft(std::span<const double> x);

/// Inverse of rfft: reconstructs a real sequence of length n from its
/// one-sided spectrum (half.size() must equal floor(n/2)+1).
std::vector<double> irfft(std::span<const cdouble> half, std::size_t n);

/// Reference O(N^2) DFT used by tests to validate the fast paths.
std::vector<cdouble> dft_reference(std::span<const cdouble> x);

}  // namespace nyqmon::dsp
