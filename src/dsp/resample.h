// Rate conversion of uniformly sampled signals.
//
// Downsampling models what a cheaper monitoring system would have collected;
// FFT-based (sinc) upsampling implements the paper's reconstruction: take
// the FFT, extend with zero bins, take the IFFT (Section 4.3). Together they
// realize the "downsample to Nyquist, upsample back, compare" experiments of
// Figures 3 and 6.
#pragma once

#include <span>
#include <vector>

namespace nyqmon::dsp {

/// Keep every `factor`-th sample starting at index 0 (no anti-alias filter —
/// this deliberately mimics a poller that simply polls less often).
std::vector<double> decimate(std::span<const double> x, std::size_t factor);

/// Band-limited (sinc) resampling to exactly n_out samples spanning the same
/// duration: FFT, zero-pad or truncate the spectrum, IFFT, rescale.
/// Upsampling (n_out > x.size()) is exact for signals band-limited below the
/// input Nyquist frequency; downsampling low-passes at the output Nyquist.
std::vector<double> resample_fourier(std::span<const double> x,
                                     std::size_t n_out);

/// Linear interpolation of x (sampled at sample_rate_hz, first sample t=0)
/// onto arbitrary query times (seconds). Queries outside the support clamp
/// to the edge values.
std::vector<double> interp_linear(std::span<const double> x,
                                  double sample_rate_hz,
                                  std::span<const double> query_times);

}  // namespace nyqmon::dsp
