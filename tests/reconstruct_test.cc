// Reconstruction (paper Section 4.3): band-limited upsampling, the Figure 6
// zero-L2 round trip with re-quantization, and the error metrics.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/quantize.h"
#include "reconstruct/error.h"
#include "reconstruct/lowpass_reconstructor.h"
#include "signal/generators.h"
#include "signal/source.h"
#include "util/rng.h"

namespace {

using nyqmon::Rng;
using nyqmon::dsp::Quantizer;
using nyqmon::rec::l2_distance;
using nyqmon::rec::max_abs_error;
using nyqmon::rec::nrmse;
using nyqmon::rec::reconstruct;
using nyqmon::rec::ReconstructionConfig;
using nyqmon::rec::rmse;
using nyqmon::rec::round_trip;
using nyqmon::sig::RegularSeries;
using nyqmon::sig::SumOfSines;
using nyqmon::sig::Tone;

TEST(Reconstruct, UpsamplesOnCorrectGrid) {
  const SumOfSines tone({{0.01, 1.0, 0.0}});
  const auto sparse = tone.sample(100.0, 10.0, 64);
  const auto dense = reconstruct(sparse, 256);
  EXPECT_EQ(dense.size(), 256u);
  EXPECT_DOUBLE_EQ(dense.t0(), 100.0);
  EXPECT_DOUBLE_EQ(dense.dt(), 2.5);  // duration preserved: 640 s / 256
}

TEST(Reconstruct, ExactForBandlimitedSignal) {
  // Periodic-in-block tone, 8x upsampling: interior must match analytically.
  const double period = 100.0;
  const SumOfSines tone({{1.0 / period, 1.0, 0.0}});
  const auto sparse = tone.sample(0.0, period / 16.0, 64);  // 4 periods
  const auto dense = reconstruct(sparse, 512);
  const auto expected = tone.sample(0.0, period / 128.0, 512);
  for (std::size_t i = 0; i < dense.size(); ++i)
    EXPECT_NEAR(dense[i], expected[i], 1e-9) << i;
}

TEST(Reconstruct, DownsampleRequestThrows) {
  const RegularSeries s(0.0, 1.0, std::vector<double>(16, 1.0));
  EXPECT_THROW((void)reconstruct(s, 8), std::invalid_argument);
}

TEST(RoundTrip, Figure6StyleRequantizedRecoveryIsAlmostExact) {
  // The paper's Figure 6 setup: a quantized slow "temperature" trace,
  // downsampled well above its Nyquist rate, reconstructed by low-pass
  // interpolation with the same quantizer re-applied (Section 4.3). The
  // vast majority of samples land back on the exact original lattice
  // values; the residual comes from samples that sat within the (tiny)
  // reconstruction error of a quantization boundary.
  Rng rng(31);
  const auto temp = nyqmon::sig::make_bandlimited_process(
      1.0 / 43200.0, 2.0, 24, rng, /*dc=*/45.0);
  const Quantizer quant(1.0);

  auto dense = temp->sample(0.0, 300.0, 2048);  // 5-min polls, ~7 days
  for (auto& v : dense.mutable_values()) v = quant.apply(v);

  ReconstructionConfig cfg;
  cfg.requantize = quant;
  cfg.lowpass_cutoff_hz = 2.0 * temp->bandwidth_hz();
  const auto recon = round_trip(dense, /*factor=*/2, cfg);
  ASSERT_EQ(recon.size(), dense.size());

  std::size_t exact = 0;
  for (std::size_t i = 0; i < dense.size(); ++i)
    if (dense[i] == recon[i]) ++exact;
  EXPECT_GT(static_cast<double>(exact) / static_cast<double>(dense.size()),
            0.90);
  EXPECT_LT(rmse(dense.span(), recon.span()), 0.35);  // << one quantum
}

TEST(RoundTrip, Figure6ZeroL2WhenInferredRateMatchesProductionRate) {
  // The literal "L2 distance = 0" of Figure 6 is the case where the
  // dynamically inferred Nyquist rate is at (or above) the production
  // sampling rate, so re-sampling keeps every sample: the round trip is
  // then the identity on the quantized lattice.
  Rng rng(33);
  const auto temp = nyqmon::sig::make_bandlimited_process(
      1.0 / 700.0, 2.0, 24, rng, 45.0);  // Nyquist ~ 1/350 > 1/300 poll rate
  const Quantizer quant(1.0);
  auto dense = temp->sample(0.0, 300.0, 2048);
  for (auto& v : dense.mutable_values()) v = quant.apply(v);

  ReconstructionConfig cfg;
  cfg.requantize = quant;
  const auto recon = round_trip(dense, /*factor=*/1, cfg);
  EXPECT_DOUBLE_EQ(l2_distance(dense.span(), recon.span()), 0.0);
}

TEST(RoundTrip, WithoutRequantizationSmallButNonzero) {
  Rng rng(32);
  const auto temp = nyqmon::sig::make_bandlimited_process(
      1.0 / 7200.0, 2.0, 24, rng, 45.0);
  const Quantizer quant(1.0);
  auto dense = temp->sample(0.0, 300.0, 2048);
  for (auto& v : dense.mutable_values()) v = quant.apply(v);

  const auto recon = round_trip(dense, 4);
  const double err = rmse(dense.span(), recon.span());
  EXPECT_GT(err, 0.0);
  EXPECT_LT(err, 0.5);  // bounded by the quantization noise scale
}

TEST(RoundTrip, AliasedDownsamplingShowsError) {
  // Downsampling *below* Nyquist must visibly corrupt the reconstruction —
  // this is the information loss the paper warns about.
  const SumOfSines busy({{0.04, 1.0, 0.0}});
  const auto dense = busy.sample(0.0, 5.0, 2048);  // fs = 0.2 Hz
  const auto recon = round_trip(dense, /*factor=*/8);  // fs' = 0.025 < 0.08
  EXPECT_GT(nrmse(dense.span(), recon.span()), 0.2);
}

TEST(RoundTrip, FactorOneIsIdentity) {
  const SumOfSines tone({{0.02, 1.0, 0.0}});
  const auto dense = tone.sample(0.0, 1.0, 128);
  const auto recon = round_trip(dense, 1);
  EXPECT_DOUBLE_EQ(l2_distance(dense.span(), recon.span()), 0.0);
}

TEST(Errors, L2AndRmseBasics) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(l2_distance(a, b), 0.0);
  const std::vector<double> c{2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(l2_distance(a, c), 2.0);
  EXPECT_DOUBLE_EQ(rmse(a, c), 1.0);
  EXPECT_DOUBLE_EQ(max_abs_error(a, c), 1.0);
}

TEST(Errors, NrmseNormalizesByRange) {
  const std::vector<double> a{0.0, 10.0};
  const std::vector<double> b{1.0, 9.0};
  EXPECT_DOUBLE_EQ(nrmse(a, b), 0.1);
}

TEST(Errors, NrmseConstantReference) {
  const std::vector<double> a{5.0, 5.0};
  EXPECT_DOUBLE_EQ(nrmse(a, a), 0.0);
  const std::vector<double> b{5.0, 6.0};
  EXPECT_TRUE(std::isinf(nrmse(a, b)));
}

TEST(Errors, SizeMismatchThrows) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW((void)l2_distance(a, b), std::invalid_argument);
}

// Property: round trip is exact (no quantization) for any decimation factor
// that keeps the sampling above the true Nyquist rate.
class RoundTripSweep : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripSweep, ExactAboveNyquist) {
  const int factor = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(factor));
  // Band limit chosen so even the largest factor stays above Nyquist:
  // fs = 1, fs/factor >= 2*bw  =>  bw <= 1/(2*maxfactor) = 1/64.
  const auto proc = nyqmon::sig::make_bandlimited_process(1.0 / 80.0, 1.0,
                                                          16, rng);
  const auto dense = proc->sample(0.0, 1.0, 4096);
  const auto recon = round_trip(dense, static_cast<std::size_t>(factor));
  // Edges suffer from non-periodicity; check the interior.
  double worst = 0.0;
  for (std::size_t i = dense.size() / 8; i < dense.size() * 7 / 8; ++i)
    worst = std::max(worst, std::abs(dense[i] - recon[i]));
  EXPECT_LT(worst, 0.1) << "factor=" << factor;
}

INSTANTIATE_TEST_SUITE_P(Factors, RoundTripSweep,
                         ::testing::Values(2, 3, 4, 8, 16, 32));

}  // namespace
