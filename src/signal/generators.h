// Synthetic signal builders.
//
// Vector generators produce sampled blocks for DSP tests and the Figure 2/3
// benches; randomized builders produce ContinuousSignal sources with a known
// band limit for estimator validation and for the telemetry metric models.
#pragma once

#include <memory>

#include "signal/source.h"
#include "signal/timeseries.h"
#include "util/rng.h"

namespace nyqmon::sig {

/// n samples of amp*sin(2*pi*f*t + phase) at rate fs, starting at t=0.
std::vector<double> make_sine(double fs_hz, std::size_t n, double freq_hz,
                              double amplitude = 1.0, double phase = 0.0);

/// The paper's Figure 3 signal: superposition of tones (e.g. 400 + 440 Hz).
std::vector<double> make_tones(double fs_hz, std::size_t n,
                               const std::vector<Tone>& tones);

/// Amplitude shaping of the random band-limited process.
enum class SpectralShape {
  kRed,   ///< amplitudes ~ 1/sqrt(f): utilization/temperature-like spectra
  kFlat,  ///< equal amplitudes: energy spread evenly across the tones
};

/// Random band-limited process: `n_tones` sinusoids with frequencies drawn
/// log-uniformly in [bandwidth_hz/10, bandwidth_hz], random phases, and
/// amplitudes per `shape`. One tone is pinned at exactly bandwidth_hz so
/// the advertised band edge carries energy.
std::shared_ptr<SumOfSines> make_bandlimited_process(
    double bandwidth_hz, double rms, std::size_t n_tones, Rng& rng,
    double dc_offset = 0.0, SpectralShape shape = SpectralShape::kRed);

/// Poisson-arrival Gaussian-bump burst process on [0, duration]:
/// models drop/error counters. sigma_s controls burst width (and thus the
/// process bandwidth); rate_per_s the expected burst arrival rate.
std::shared_ptr<GaussianBumpTrain> make_burst_process(double duration_s,
                                                      double rate_per_s,
                                                      double sigma_s,
                                                      double amplitude_mean,
                                                      Rng& rng,
                                                      double baseline = 0.0);

/// Random smooth level-shift process (link flap / fail-stop regimes).
std::shared_ptr<SmoothStepTrain> make_flap_process(double duration_s,
                                                   double rate_per_s,
                                                   double width_s,
                                                   double amplitude,
                                                   Rng& rng,
                                                   double baseline = 0.0);

/// Diurnal pattern: 24 h fundamental plus a few harmonics with slowly
/// decaying amplitudes — the shape of temperature/traffic daily cycles.
std::shared_ptr<SumOfSines> make_diurnal(double peak_to_peak,
                                         std::size_t harmonics, Rng& rng,
                                         double dc_offset = 0.0);

}  // namespace nyqmon::sig
