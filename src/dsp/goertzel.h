// Goertzel algorithm: power of a single frequency bin in O(N) without a
// full FFT. The dual-rate aliasing detector uses it to spot-check a handful
// of frequencies cheaply, as an online system would.
//
// goertzel_power_multi evaluates a whole candidate list in batches of four
// independent recurrences — one pass over the samples per four frequencies
// instead of per frequency.
#pragma once

#include <span>
#include <vector>

namespace nyqmon::dsp {

/// Power (|X(f)|^2 / N^2, matching the periodogram normalization up to
/// one-sided folding) of x at `frequency_hz` given the sampling rate.
double goertzel_power(std::span<const double> x, double sample_rate_hz,
                      double frequency_hz);

/// goertzel_power for every frequency in `frequencies_hz` (same contract
/// per element), batched four lanes at a time. Bit-identical to calling
/// goertzel_power per frequency.
std::vector<double> goertzel_power_multi(
    std::span<const double> x, double sample_rate_hz,
    std::span<const double> frequencies_hz);

}  // namespace nyqmon::dsp
