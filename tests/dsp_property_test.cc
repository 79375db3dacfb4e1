// Property-style sweeps over the DSP substrate: invariants that must hold
// for *every* window type, quantizer step, resampling ratio and frequency —
// not just the hand-picked cases of the unit tests.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dsp/fft.h"
#include "dsp/filter.h"
#include "dsp/goertzel.h"
#include "dsp/psd.h"
#include "dsp/quantize.h"
#include "dsp/resample.h"
#include "dsp/window.h"
#include "dsp/workspace.h"
#include "signal/generators.h"
#include "util/rng.h"

namespace {

using nyqmon::Rng;
using namespace nyqmon::dsp;
using nyqmon::sig::make_sine;

// ---------------------------------------------------------------- windows
class WindowSweep : public ::testing::TestWithParam<WindowType> {};

TEST_P(WindowSweep, SymmetricFormMirrorsExactly) {
  for (std::size_t n : {3u, 16u, 31u, 64u, 101u}) {
    const auto w = make_window(GetParam(), n, /*symmetric=*/true);
    for (std::size_t i = 0; i < n / 2; ++i)
      EXPECT_NEAR(w[i], w[n - 1 - i], 1e-12)
          << window_name(GetParam()) << " n=" << n << " i=" << i;
  }
}

TEST_P(WindowSweep, EnergyPositiveAndAtMostN) {
  for (std::size_t n : {2u, 17u, 256u}) {
    const double e = window_energy(GetParam(), n);
    EXPECT_GT(e, 0.0);
    EXPECT_LE(e, static_cast<double>(n) * 1.2);  // flat-top overshoots ~1.08
  }
}

// The periodogram multiplies each block by the thread's cached window; the
// cache must hand out make_window's coefficients exactly.
TEST_P(WindowSweep, WorkspaceWindowCacheMatchesMakeWindow) {
  const auto& cached = this_thread_workspace().window(GetParam(), 64);
  EXPECT_EQ(cached, make_window(GetParam(), 64)) << window_name(GetParam());
}

TEST_P(WindowSweep, PeriodogramTotalEnergyWithinWindowTolerance) {
  // Window normalization keeps a broadband signal's total PSD within a
  // modest factor of the rectangular-window reference.
  Rng rng(2);
  std::vector<double> x(1024);
  for (auto& v : x) v = rng.normal(0.0, 1.0);
  PeriodogramConfig rect;
  rect.window = WindowType::kRectangular;
  rect.remove_mean = false;
  PeriodogramConfig win;
  win.window = GetParam();
  win.remove_mean = false;
  const double ref = periodogram(x, 1.0, rect).total_energy();
  const double got = periodogram(x, 1.0, win).total_energy();
  EXPECT_GT(got, ref / 3.0) << window_name(GetParam());
  EXPECT_LT(got, ref * 3.0) << window_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllWindows, WindowSweep,
                         ::testing::Values(WindowType::kRectangular,
                                           WindowType::kHann,
                                           WindowType::kHamming,
                                           WindowType::kBlackman,
                                           WindowType::kFlatTop));

// -------------------------------------------------------------- quantizer
class QuantizerSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantizerSweep, ErrorBoundAndIdempotence) {
  const double step = GetParam();
  const Quantizer q(step);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(-1000.0, 1000.0);
    const double quantized = q.apply(v);
    EXPECT_LE(std::abs(quantized - v), step / 2.0 + 1e-9 * step);
    EXPECT_DOUBLE_EQ(q.apply(quantized), quantized);
    // The output is on the lattice.
    const double k = (quantized - q.offset()) / step;
    EXPECT_NEAR(k, std::round(k), 1e-9);
  }
}

TEST_P(QuantizerSweep, NoisePowerMatchesModel) {
  const double step = GetParam();
  const Quantizer q(step);
  Rng rng(4);
  double noise = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.uniform(-100.0 * step, 100.0 * step);
    const double e = q.apply(v) - v;
    noise += e * e;
  }
  noise /= n;
  EXPECT_NEAR(noise, q.noise_power(), 0.1 * q.noise_power());
}

INSTANTIATE_TEST_SUITE_P(Steps, QuantizerSweep,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0, 4.0, 1000.0));

// ------------------------------------------------------------- resampling
class ResampleSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ResampleSweep, FourierUpsampleIsExactForPeriodicBandlimited) {
  const auto [n_in, factor] = GetParam();
  Rng rng(5);
  // Signal with integer cycle counts < n_in/4 is periodic in the block and
  // band-limited far below Nyquist -> upsampling must be exact everywhere.
  std::vector<double> x(static_cast<std::size_t>(n_in), 0.0);
  std::vector<std::pair<double, double>> tones;  // (cycles, phase)
  for (int k = 0; k < 3; ++k) {
    tones.emplace_back(static_cast<double>(rng.uniform_int(1, n_in / 4 - 1)),
                       rng.uniform(0.0, 6.28));
  }
  for (int i = 0; i < n_in; ++i) {
    for (const auto& [cycles, ph] : tones)
      x[static_cast<std::size_t>(i)] +=
          std::sin(2.0 * std::numbers::pi * cycles * i / n_in + ph);
  }
  const std::size_t n_out = static_cast<std::size_t>(n_in * factor);
  const auto up = resample_fourier(x, n_out);
  for (std::size_t j = 0; j < n_out; ++j) {
    double expected = 0.0;
    const double t = static_cast<double>(j) / static_cast<double>(factor);
    for (const auto& [cycles, ph] : tones)
      expected += std::sin(2.0 * std::numbers::pi * cycles * t / n_in + ph);
    ASSERT_NEAR(up[j], expected, 1e-7)
        << "n_in=" << n_in << " factor=" << factor << " j=" << j;
  }
}

TEST_P(ResampleSweep, DownThenUpPreservesMeanExactly) {
  const auto [n_in, factor] = GetParam();
  Rng rng(6);
  std::vector<double> x(static_cast<std::size_t>(n_in));
  for (auto& v : x) v = rng.uniform(10.0, 20.0);
  const auto down = resample_fourier(x, x.size() / 2);
  const auto up = resample_fourier(down, x.size());
  double mean_x = 0.0, mean_up = 0.0;
  for (double v : x) mean_x += v;
  for (double v : up) mean_up += v;
  // Fourier resampling preserves the DC bin exactly (up to rounding).
  EXPECT_NEAR(mean_up / static_cast<double>(up.size()),
              mean_x / static_cast<double>(x.size()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndFactors, ResampleSweep,
    ::testing::Combine(::testing::Values(32, 60, 128, 250),
                       ::testing::Values(2, 3, 5)));

// ---------------------------------------------------------------- goertzel
class GoertzelSweep : public ::testing::TestWithParam<int> {};

TEST_P(GoertzelSweep, MatchesPeriodogramBinForBinCentredTones) {
  // For bin-centred tones, the Goertzel power equals the two-sided
  // periodogram bin power (the one-sided form folds in a factor 2).
  const int bin = GetParam();
  const double fs = 256.0;
  const std::size_t n = 256;
  const double f = static_cast<double>(bin) * fs / static_cast<double>(n);
  const auto x = make_sine(fs, n, f, 1.5);
  PeriodogramConfig pc;
  pc.window = WindowType::kRectangular;
  pc.remove_mean = false;
  const auto psd = periodogram(x, fs, pc);
  const double g = goertzel_power(x, fs, f);
  EXPECT_NEAR(2.0 * g, psd.power[static_cast<std::size_t>(bin)],
              1e-9 + 1e-9 * g);
}

INSTANTIATE_TEST_SUITE_P(Bins, GoertzelSweep,
                         ::testing::Values(1, 3, 10, 50, 100, 127));

// ------------------------------------------------------------ ideal filter
class LowpassSweep : public ::testing::TestWithParam<double> {};

TEST_P(LowpassSweep, RemovesEverythingAboveCutoff) {
  const double cutoff_fraction = GetParam();  // of the Nyquist frequency
  Rng rng(7);
  std::vector<double> x(1024);
  for (auto& v : x) v = rng.normal(0.0, 1.0);
  const double fs = 1.0;
  const double cutoff = cutoff_fraction * fs / 2.0;
  const auto y = ideal_lowpass(x, fs, cutoff);
  PeriodogramConfig pc;
  pc.window = WindowType::kRectangular;
  pc.remove_mean = false;
  const auto psd = periodogram(y, fs, pc);
  double above = 0.0;
  for (std::size_t k = 0; k < psd.bins(); ++k)
    if (psd.frequency_hz[k] > cutoff * 1.001) above += psd.power[k];
  EXPECT_NEAR(above, 0.0, 1e-15);
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, LowpassSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.95));

}  // namespace
