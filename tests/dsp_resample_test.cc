// Rate conversion: decimation, Fourier (band-limited) resampling, and linear
// interpolation. The key property is the paper's reconstruction guarantee:
// a signal sampled above its Nyquist rate survives downsample -> Fourier
// upsample exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dsp/resample.h"
#include "signal/generators.h"
#include "util/rng.h"

namespace {

using nyqmon::Rng;
using nyqmon::dsp::decimate;
using nyqmon::dsp::interp_linear;
using nyqmon::dsp::resample_fourier;
using nyqmon::sig::make_sine;
using nyqmon::sig::make_tones;

TEST(Decimate, KeepsEveryKth) {
  const std::vector<double> x{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto y = decimate(x, 3);
  EXPECT_EQ(y, (std::vector<double>{0, 3, 6, 9}));
}

TEST(Decimate, FactorOneIsIdentity) {
  const std::vector<double> x{1, 2, 3};
  EXPECT_EQ(decimate(x, 1), x);
}

TEST(Decimate, FactorLargerThanSizeKeepsFirst) {
  const std::vector<double> x{5, 6, 7};
  EXPECT_EQ(decimate(x, 10), (std::vector<double>{5}));
}

TEST(ResampleFourier, UpsampleRecoversBandlimitedTone) {
  // Integer-cycle tone sampled just above Nyquist, upsampled 8x, must match
  // the dense analytic signal.
  const double fs = 100.0;
  const std::size_t n = 50;           // 0.5 s
  const double freq = 12.0;           // 6 cycles in the block
  const auto sparse = make_sine(fs, n, freq);
  const std::size_t up = 8;
  const auto dense = resample_fourier(sparse, n * up);
  ASSERT_EQ(dense.size(), n * up);
  const auto expected = make_sine(fs * static_cast<double>(up), n * up, freq);
  for (std::size_t i = 0; i < dense.size(); ++i)
    EXPECT_NEAR(dense[i], expected[i], 1e-9) << i;
}

TEST(ResampleFourier, SameLengthIsIdentity) {
  Rng rng(3);
  std::vector<double> x(37);
  for (auto& v : x) v = rng.normal(0, 1);
  EXPECT_EQ(resample_fourier(x, 37), x);
}

TEST(ResampleFourier, PreservesDcLevel) {
  const std::vector<double> x(20, 4.2);
  for (double v : resample_fourier(x, 55)) EXPECT_NEAR(v, 4.2, 1e-10);
}

TEST(ResampleFourier, DownsampleLowpasses) {
  // Two tones, one above the output Nyquist: downsampling keeps the low
  // tone and removes the high one.
  const double fs = 1000.0;
  const std::size_t n = 1000;
  const auto x = make_tones(fs, n, {{20.0, 1.0, 0.0}, {400.0, 1.0, 0.0}});
  const std::size_t n_out = 100;  // fs'=100 Hz, Nyquist 50 Hz
  const auto y = resample_fourier(x, n_out);
  const auto expected = make_sine(100.0, n_out, 20.0);
  for (std::size_t i = 0; i < n_out; ++i)
    EXPECT_NEAR(y[i], expected[i], 1e-9);
}

TEST(ResampleFourier, RoundTripOnRandomBandlimitedSignal) {
  // Property: synthesize from K low-frequency bins, decimate far above the
  // occupied band, upsample back -> exact.
  Rng rng(4);
  const std::size_t n = 512;
  std::vector<double> x(n, 0.0);
  for (int tone = 0; tone < 5; ++tone) {
    const double cycles = static_cast<double>(rng.uniform_int(1, 20));
    const double amp = rng.uniform(0.5, 2.0);
    const double ph = rng.uniform(0.0, 6.28);
    for (std::size_t i = 0; i < n; ++i)
      x[i] += amp * std::sin(2.0 * std::numbers::pi * cycles *
                                 static_cast<double>(i) /
                                 static_cast<double>(n) +
                             ph);
  }
  const auto down = decimate(x, 8);  // 64 samples, Nyquist at 32 cycles
  const auto up = resample_fourier(down, n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(up[i], x[i], 1e-8);
}

TEST(InterpLinear, ExactOnGridPoints) {
  const std::vector<double> x{0.0, 10.0, 20.0};
  const std::vector<double> q{0.0, 1.0, 2.0};
  EXPECT_EQ(interp_linear(x, 1.0, q), x);
}

TEST(InterpLinear, Midpoints) {
  const std::vector<double> x{0.0, 10.0};
  const std::vector<double> q{0.25, 0.5, 0.75};
  const auto y = interp_linear(x, 1.0, q);
  EXPECT_NEAR(y[0], 2.5, 1e-12);
  EXPECT_NEAR(y[1], 5.0, 1e-12);
  EXPECT_NEAR(y[2], 7.5, 1e-12);
}

TEST(InterpLinear, ClampsOutsideSupport) {
  const std::vector<double> x{1.0, 2.0};
  const std::vector<double> q{-5.0, 10.0};
  const auto y = interp_linear(x, 1.0, q);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 2.0);
}

}  // namespace
