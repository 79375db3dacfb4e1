// Filters: ideal (spectral) low-pass, windowed-sinc FIR design, convolution,
// detrending and Goertzel.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dsp/detrend.h"
#include "dsp/filter.h"
#include "dsp/goertzel.h"
#include "signal/generators.h"
#include "util/rng.h"

namespace {

using nyqmon::Rng;
using nyqmon::dsp::convolve;
using nyqmon::dsp::design_lowpass_fir;
using nyqmon::dsp::filter_same;
using nyqmon::dsp::fit_line;
using nyqmon::dsp::goertzel_power;
using nyqmon::dsp::ideal_lowpass;
using nyqmon::dsp::remove_linear_trend;
using nyqmon::dsp::remove_mean;
using nyqmon::sig::make_sine;
using nyqmon::sig::make_tones;

TEST(IdealLowpass, PassesInBandToneExactly) {
  const double fs = 1000.0;
  const auto x = make_sine(fs, 1000, 50.0);  // integer cycles in the block
  const auto y = ideal_lowpass(x, fs, 100.0);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y[i], x[i], 1e-9);
}

TEST(IdealLowpass, RemovesOutOfBandTone) {
  const double fs = 1000.0;
  std::vector<nyqmon::sig::Tone> tones{{50.0, 1.0, 0.0}, {400.0, 1.0, 0.0}};
  const auto x = make_tones(fs, 1000, tones);
  const auto low = make_sine(fs, 1000, 50.0);
  const auto y = ideal_lowpass(x, fs, 100.0);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y[i], low[i], 1e-9) << i;
}

TEST(IdealLowpass, ZeroCutoffLeavesOnlyDc) {
  std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const auto y = ideal_lowpass(x, 1.0, 0.0);
  for (double v : y) EXPECT_NEAR(v, 2.5, 1e-12);
}

TEST(IdealLowpass, CutoffAboveNyquistIsIdentity) {
  Rng rng(1);
  std::vector<double> x(64);
  for (auto& v : x) v = rng.normal(0, 1);
  const auto y = ideal_lowpass(x, 10.0, 100.0);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y[i], x[i], 1e-10);
}

TEST(FirDesign, UnitDcGain) {
  const auto h = design_lowpass_fir(31, 10.0, 100.0);
  double sum = 0.0;
  for (double v : h) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(FirDesign, SymmetricLinearPhase) {
  const auto h = design_lowpass_fir(51, 5.0, 100.0);
  for (std::size_t i = 0; i < h.size() / 2; ++i)
    EXPECT_NEAR(h[i], h[h.size() - 1 - i], 1e-12);
}

TEST(FirDesign, AttenuatesStopband) {
  const double fs = 1000.0;
  const auto h = design_lowpass_fir(101, 50.0, fs);
  const auto pass = make_sine(fs, 2000, 10.0);
  const auto stop = make_sine(fs, 2000, 300.0);
  const auto yp = filter_same(pass, h);
  const auto ys = filter_same(stop, h);
  // Compare RMS in the steady-state middle (away from edge transients).
  auto rms_mid = [](const std::vector<double>& v) {
    double acc = 0.0;
    for (std::size_t i = 200; i + 200 < v.size(); ++i) acc += v[i] * v[i];
    return std::sqrt(acc / static_cast<double>(v.size() - 400));
  };
  EXPECT_GT(rms_mid(yp), 0.6);
  EXPECT_LT(rms_mid(ys), 0.01);
}

TEST(FirDesign, RejectsBadArguments) {
  EXPECT_THROW((void)design_lowpass_fir(30, 10.0, 100.0),
               std::invalid_argument);  // even taps
  EXPECT_THROW((void)design_lowpass_fir(31, 60.0, 100.0),
               std::invalid_argument);  // cutoff above Nyquist
  EXPECT_THROW((void)design_lowpass_fir(31, 0.0, 100.0),
               std::invalid_argument);
}

TEST(Convolve, MatchesHandComputedExample) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> h{1.0, -1.0};
  const auto y = convolve(x, h);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
  EXPECT_DOUBLE_EQ(y[2], 1.0);
  EXPECT_DOUBLE_EQ(y[3], -3.0);
}

TEST(Convolve, IdentityKernel) {
  const std::vector<double> x{4.0, 5.0, 6.0};
  const std::vector<double> h{1.0};
  EXPECT_EQ(convolve(x, h), x);
}

TEST(FilterSame, PreservesLengthAndAlignment) {
  const auto x = make_sine(100.0, 500, 2.0);
  const auto h = design_lowpass_fir(31, 20.0, 100.0);
  const auto y = filter_same(x, h);
  ASSERT_EQ(y.size(), x.size());
  // In-band tone passes with ~unit gain and no phase shift in the middle.
  for (std::size_t i = 100; i < 400; ++i) EXPECT_NEAR(y[i], x[i], 0.01);
}

TEST(Detrend, RemoveMeanZeroes) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const auto y = remove_mean(x);
  EXPECT_NEAR(y[0] + y[1] + y[2], 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
}

TEST(Detrend, FitLineRecoversSlope) {
  std::vector<double> x(100);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 3.0 + 0.25 * static_cast<double>(i);
  const auto fit = fit_line(x);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 0.25, 1e-12);
}

TEST(Detrend, LinearTrendRemovalLeavesResidual) {
  Rng rng(2);
  std::vector<double> x(200);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 10.0 - 0.5 * static_cast<double>(i) +
           std::sin(2.0 * std::numbers::pi * static_cast<double>(i) / 20.0);
  const auto y = remove_linear_trend(x);
  const auto fit = fit_line(y);
  EXPECT_NEAR(fit.slope, 0.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 0.0, 0.05);
}

TEST(Detrend, SingleSample) {
  const std::vector<double> x{5.0};
  EXPECT_DOUBLE_EQ(remove_mean(x)[0], 0.0);
  EXPECT_DOUBLE_EQ(remove_linear_trend(x)[0], 0.0);
}

TEST(Goertzel, MatchesPeriodogramForTone) {
  const double fs = 500.0;
  const std::size_t n = 500;
  const auto x = make_sine(fs, n, 25.0, 2.0);
  // Unit-amplitude-normalized power of a 2-amp tone: |X|^2/N^2 = 1.0 at
  // the positive-frequency bin (amplitude a gives (a/2)^2 per side).
  EXPECT_NEAR(goertzel_power(x, fs, 25.0), 1.0, 1e-9);
  EXPECT_NEAR(goertzel_power(x, fs, 100.0), 0.0, 1e-9);
}

TEST(Goertzel, DcBin) {
  const std::vector<double> x(100, 3.0);
  EXPECT_NEAR(goertzel_power(x, 10.0, 0.0), 9.0, 1e-9);
}

TEST(Goertzel, OutOfRangeFrequencyThrows) {
  const std::vector<double> x(16, 1.0);
  EXPECT_THROW((void)goertzel_power(x, 10.0, 6.0), std::invalid_argument);
  EXPECT_THROW((void)goertzel_power(x, 10.0, -1.0), std::invalid_argument);
}

}  // namespace
