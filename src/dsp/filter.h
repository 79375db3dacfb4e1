// Filtering primitives.
//
// The reconstruction path of the paper (Section 4.3) low-pass filters by
// zeroing FFT bins above the Nyquist cutoff. Two low-pass families live
// here:
//   * ideal (spectral) low-pass — exact brick wall via FFT;
//   * windowed-sinc FIR low-pass + direct convolution.
#pragma once

#include <span>
#include <vector>

#include "dsp/window.h"

namespace nyqmon::dsp {

/// Brick-wall low-pass: FFT, zero all bins with |f| > cutoff_hz, IFFT.
/// Exact for band-limited inputs; introduces ringing near sharp edges.
std::vector<double> ideal_lowpass(std::span<const double> x,
                                  double sample_rate_hz, double cutoff_hz);

/// Design a linear-phase windowed-sinc low-pass FIR filter.
/// `taps` must be odd so the filter has integral group delay (taps-1)/2.
/// The result is normalized to unit DC gain.
std::vector<double> design_lowpass_fir(std::size_t taps, double cutoff_hz,
                                       double sample_rate_hz,
                                       WindowType window = WindowType::kHamming);

/// Full convolution of x with kernel h; output length x.size()+h.size()-1.
std::vector<double> convolve(std::span<const double> x,
                             std::span<const double> h);

/// "Same"-size convolution: applies h and trims the group delay so the
/// output aligns with x (length preserved). h.size() must be odd.
std::vector<double> filter_same(std::span<const double> x,
                                std::span<const double> h);

}  // namespace nyqmon::dsp
