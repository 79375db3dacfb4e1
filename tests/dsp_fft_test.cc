// FFT correctness: against the O(N^2) reference DFT, analytic spectra,
// round trips, Parseval's theorem, and the Bluestein arbitrary-N path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>

#include "dsp/fft.h"
#include "dsp/workspace.h"
#include "signal/generators.h"
#include "util/rng.h"

namespace {

using nyqmon::Rng;
using nyqmon::dsp::cdouble;
using nyqmon::dsp::dft_reference;
using nyqmon::dsp::fft;
using nyqmon::dsp::fft_real;
using nyqmon::dsp::ifft;
using nyqmon::dsp::irfft;
using nyqmon::dsp::is_power_of_two;
using nyqmon::dsp::next_power_of_two;
using nyqmon::dsp::rfft;

std::vector<cdouble> random_complex(std::size_t n, Rng& rng) {
  std::vector<cdouble> x(n);
  for (auto& v : x) v = cdouble(rng.normal(0, 1), rng.normal(0, 1));
  return x;
}

double max_err(const std::vector<cdouble>& a, const std::vector<cdouble>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(PowerOfTwo, Detection) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(6));
  EXPECT_FALSE(is_power_of_two(1023));
}

TEST(PowerOfTwo, Next) {
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(2), 2u);
  EXPECT_EQ(next_power_of_two(3), 4u);
  EXPECT_EQ(next_power_of_two(1000), 1024u);
  EXPECT_EQ(next_power_of_two(1025), 2048u);
}

TEST(Fft, MatchesReferenceDftPow2) {
  Rng rng(1);
  const auto x = random_complex(64, rng);
  EXPECT_LT(max_err(fft(x), dft_reference(x)), 1e-9);
}

TEST(Fft, MatchesReferenceDftArbitraryN) {
  Rng rng(2);
  for (std::size_t n : {3u, 5u, 7u, 12u, 17u, 100u, 121u}) {
    const auto x = random_complex(n, rng);
    EXPECT_LT(max_err(fft(x), dft_reference(x)), 1e-8) << "n=" << n;
  }
}

TEST(Fft, SingleSample) {
  const std::vector<cdouble> x{cdouble(3.5, -1.0)};
  const auto spec = fft(x);
  ASSERT_EQ(spec.size(), 1u);
  EXPECT_NEAR(spec[0].real(), 3.5, 1e-12);
  EXPECT_NEAR(spec[0].imag(), -1.0, 1e-12);
}

TEST(Fft, EmptyThrows) {
  const std::vector<cdouble> x;
  EXPECT_THROW((void)fft(x), std::invalid_argument);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<cdouble> x(32, cdouble(0, 0));
  x[0] = cdouble(1, 0);
  for (const auto& bin : fft(x)) {
    EXPECT_NEAR(bin.real(), 1.0, 1e-12);
    EXPECT_NEAR(bin.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, DcSignalConcentratesInBinZero) {
  const std::vector<cdouble> x(16, cdouble(2.0, 0));
  const auto spec = fft(x);
  EXPECT_NEAR(spec[0].real(), 32.0, 1e-10);
  for (std::size_t k = 1; k < spec.size(); ++k)
    EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-10) << "k=" << k;
}

TEST(Fft, PureToneLandsInItsBin) {
  // sin(2 pi * 5 * t/N): energy at bins 5 and N-5 with magnitude N/2.
  const std::size_t n = 128;
  std::vector<cdouble> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::sin(2.0 * std::numbers::pi * 5.0 * static_cast<double>(i) /
                    static_cast<double>(n));
  const auto spec = fft(x);
  EXPECT_NEAR(std::abs(spec[5]), static_cast<double>(n) / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(spec[n - 5]), static_cast<double>(n) / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(spec[4]), 0.0, 1e-9);
}

TEST(Fft, Linearity) {
  Rng rng(3);
  const auto a = random_complex(50, rng);
  const auto b = random_complex(50, rng);
  std::vector<cdouble> sum(50);
  for (std::size_t i = 0; i < 50; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  const auto fa = fft(a);
  const auto fb = fft(b);
  const auto fsum = fft(sum);
  for (std::size_t k = 0; k < 50; ++k)
    EXPECT_LT(std::abs(fsum[k] - (2.0 * fa[k] + 3.0 * fb[k])), 1e-9);
}

TEST(Fft, RealInputSpectrumIsConjugateSymmetric) {
  Rng rng(4);
  std::vector<double> x(40);
  for (auto& v : x) v = rng.normal(0, 1);
  const auto spec = fft_real(x);
  for (std::size_t k = 1; k < x.size(); ++k) {
    EXPECT_LT(std::abs(spec[k] - std::conj(spec[x.size() - k])), 1e-10);
  }
}

TEST(Rfft, HalfSpectrumMatchesFullAndInverts) {
  Rng rng(5);
  for (std::size_t n : {16u, 17u, 33u, 64u}) {
    std::vector<double> x(n);
    for (auto& v : x) v = rng.normal(0, 1);
    const auto half = rfft(x);
    ASSERT_EQ(half.size(), n / 2 + 1);
    const auto full = fft_real(x);
    for (std::size_t k = 0; k < half.size(); ++k)
      EXPECT_LT(std::abs(half[k] - full[k]), 1e-10);
    const auto back = irfft(half, n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], x[i], 1e-9);
  }
}

// A plan build inside rfft's half-size transform may flush the plan cache.
// The 2^19-point plan leaves the cache just under its cap, so building the
// 2^16-point plan (or, before it, the unpack table) overflows it during
// the call; the unpack table must not be one the flush already freed.
TEST(Rfft, PlanCacheFlushDuringCallKeepsOutputExact) {
  auto& ws = nyqmon::dsp::this_thread_workspace();
  ws.reset();
  Rng rng(6);
  (void)fft(random_complex(std::size_t{1} << 19, rng));
  std::vector<double> x(std::size_t{1} << 17);
  for (auto& v : x) v = rng.normal(0, 1);

  const std::uint64_t flushes = ws.cache_flushes();
  const auto cold = rfft(x);
  EXPECT_EQ(ws.cache_flushes(), flushes + 1);
  const auto warm = rfft(x);
  ASSERT_EQ(cold.size(), warm.size());
  EXPECT_EQ(std::memcmp(cold.data(), warm.data(),
                        cold.size() * sizeof(cdouble)),
            0);
}

TEST(Irfft, SizeMismatchThrows) {
  const std::vector<cdouble> half(5);
  EXPECT_THROW((void)irfft(half, 16), std::invalid_argument);
}

// Parameterized round-trip + Parseval sweep over lengths (both power-of-two
// and Bluestein paths) and seeds.
class FftRoundTrip : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FftRoundTrip, IfftInvertsFft) {
  const auto [n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const auto x = random_complex(static_cast<std::size_t>(n), rng);
  const auto back = ifft(fft(x));
  EXPECT_LT(max_err(back, x), 1e-8) << "n=" << n;
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const auto [n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 1000);
  const auto x = random_complex(static_cast<std::size_t>(n), rng);
  const auto spec = fft(x);
  double time_energy = 0.0;
  double freq_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-8 * time_energy + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    LengthsAndSeeds, FftRoundTrip,
    ::testing::Combine(::testing::Values(2, 4, 8, 15, 16, 27, 64, 100, 255,
                                         256, 1000, 1024),
                       ::testing::Values(11, 22, 33)));

}  // namespace
