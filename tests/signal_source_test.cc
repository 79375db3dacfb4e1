// Continuous signal sources: band limits, sampling, and the randomized
// generators that power the telemetry metric models. The central property:
// a generated process really is band-limited at its advertised bandwidth
// (verified spectrally).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "dsp/psd.h"
#include "signal/generators.h"
#include "signal/source.h"
#include "util/rng.h"

namespace {

using nyqmon::Rng;
using namespace nyqmon::sig;

// Fraction of spectral energy above `cutoff_hz` for a sampled signal.
double energy_above(const RegularSeries& s, double cutoff_hz) {
  nyqmon::dsp::PeriodogramConfig pc;
  pc.remove_mean = true;
  const auto psd = nyqmon::dsp::periodogram(s.span(), s.sample_rate_hz(), pc);
  double above = 0.0;
  const double total = psd.total_energy();
  for (std::size_t k = 0; k < psd.bins(); ++k)
    if (psd.frequency_hz[k] > cutoff_hz) above += psd.power[k];
  return total > 0.0 ? above / total : 0.0;
}

TEST(SumOfSines, ValueMatchesAnalyticForm) {
  const SumOfSines s({{2.0, 3.0, 0.0}}, /*dc=*/1.0);
  EXPECT_NEAR(s.value(0.0), 1.0, 1e-12);           // sin(0) = 0 plus DC
  EXPECT_NEAR(s.value(0.125), 1.0 + 3.0, 1e-12);   // quarter period of 2 Hz
  EXPECT_DOUBLE_EQ(s.bandwidth_hz(), 2.0);
}

TEST(SumOfSines, BandwidthIsMaxTone) {
  const SumOfSines s({{1.0, 1.0, 0.0}, {5.0, 0.1, 0.0}, {3.0, 2.0, 0.0}});
  EXPECT_DOUBLE_EQ(s.bandwidth_hz(), 5.0);
}

TEST(SumOfSines, SampleGridMatchesValue) {
  const SumOfSines s({{0.5, 1.0, 0.3}});
  const auto rs = s.sample(10.0, 0.25, 32);
  ASSERT_EQ(rs.size(), 32u);
  for (std::size_t i = 0; i < rs.size(); ++i)
    EXPECT_DOUBLE_EQ(rs[i], s.value(rs.time_at(i)));
}

TEST(GaussianBumpTrain, PeaksAtBumpCentres) {
  const GaussianBumpTrain train({{100.0, 5.0}, {200.0, 2.0}}, /*sigma=*/3.0,
                                /*baseline=*/1.0);
  EXPECT_NEAR(train.value(100.0), 6.0, 1e-9);
  EXPECT_NEAR(train.value(200.0), 3.0, 1e-9);
  EXPECT_NEAR(train.value(150.0), 1.0, 1e-6);  // far from both bumps
}

TEST(GaussianBumpTrain, BandwidthScalesInverselyWithSigma) {
  const GaussianBumpTrain narrow({{0.0, 1.0}}, 1.0);
  const GaussianBumpTrain wide({{0.0, 1.0}}, 10.0);
  EXPECT_NEAR(narrow.bandwidth_hz() / wide.bandwidth_hz(), 10.0, 1e-9);
}

TEST(GaussianBumpTrain, SpectrallyBandlimited) {
  const GaussianBumpTrain train({{50.0, 1.0}, {120.0, 2.0}, {130.0, 1.5}},
                                /*sigma=*/5.0);
  const double bw = train.bandwidth_hz();
  const auto rs = train.sample(0.0, 1.0 / (8.0 * bw), 4096);
  EXPECT_LT(energy_above(rs, bw), 1e-4);
}

TEST(SmoothStepTrain, LevelsBeforeAndAfter) {
  const SmoothStepTrain steps({{100.0, 4.0}}, /*width=*/2.0, /*baseline=*/1.0);
  EXPECT_NEAR(steps.value(0.0), 1.0, 1e-9);
  EXPECT_NEAR(steps.value(200.0), 5.0, 1e-9);
  EXPECT_NEAR(steps.value(100.0), 3.0, 1e-9);  // midpoint of the transition
}

TEST(SmoothStepTrain, SpectrallyBandlimited) {
  const SmoothStepTrain steps({{30.0, 1.0}, {70.0, -1.0}}, /*width=*/5.0);
  const double bw = steps.bandwidth_hz();
  const auto rs = steps.sample(0.0, 1.0 / (16.0 * bw), 8192);
  EXPECT_LT(energy_above(rs, bw), 1e-3);
}

// --------------------------------------- step train: bit-exact evaluation --

constexpr double kSat = SmoothStepTrain::kSaturation;
constexpr double kInf = std::numeric_limits<double>::infinity();

// The plain evaluation SmoothStepTrain::value() must reproduce bit for bit:
// every step's tanh term, added to the baseline in centre order.
struct ReferenceTrain {
  ReferenceTrain(std::vector<SmoothStepTrain::Step> s, double w, double b)
      : steps(std::move(s)), width(w), baseline(b) {
    std::sort(steps.begin(), steps.end(), [](const auto& a, const auto& c) {
      return a.center_s < c.center_s;
    });
  }
  double value(double t) const {
    double v = baseline;
    for (const auto& s : steps)
      v += s.amplitude * 0.5 * (1.0 + std::tanh((t - s.center_s) / width));
    return v;
  }
  std::vector<SmoothStepTrain::Step> steps;
  double width;
  double baseline;
};

// The train and its reference evaluated at every probe time, compared as
// bits (so ±0.0 and NaN payloads count).
void expect_bitwise_equal(const std::vector<SmoothStepTrain::Step>& steps,
                          double width, double baseline,
                          const std::vector<double>& times) {
  const SmoothStepTrain train(steps, width, baseline);
  const ReferenceTrain ref(steps, width, baseline);
  for (const double t : times)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(train.value(t)),
              std::bit_cast<std::uint64_t>(ref.value(t)))
        << "t=" << t << " width=" << width << " got " << train.value(t)
        << " want " << ref.value(t);
}

// t at every centre, at ±kSat widths from it, one ulp either side of each
// of those, before and after every step, on a dense sweep over the whole
// train, and at the non-finite times.
std::vector<double> probe_times(const std::vector<SmoothStepTrain::Step>& steps,
                                double width) {
  std::vector<double> times;
  const auto with_ulps = [&](double t) {
    times.push_back(t);
    times.push_back(std::nextafter(t, -kInf));
    times.push_back(std::nextafter(t, kInf));
  };
  double first = steps.front().center_s, last = first;
  for (const auto& s : steps) {
    with_ulps(s.center_s);
    with_ulps(s.center_s + kSat * width);
    with_ulps(s.center_s - kSat * width);
    times.push_back(s.center_s - 0.5 * width);
    times.push_back(s.center_s + 0.5 * width);
    first = std::min(first, s.center_s);
    last = std::max(last, s.center_s);
  }
  const double pad = 2.0 * kSat * width + 1.0;
  for (int i = 0; i <= 2000; ++i)
    times.push_back(first - pad + (last - first + 2.0 * pad) * i / 2000.0);
  for (const double t : {-1e300, 1e300, -kInf, kInf,
                         std::numeric_limits<double>::quiet_NaN()})
    times.push_back(t);
  return times;
}

// value() relies on tanh being exactly ±1 from kSat on; a libm that does
// not saturate there fails here, not as a digest mismatch. volatile keeps
// the compiler from folding the call, so this tests the libm the library
// links, not the compiler's constant folder.
double runtime_tanh(double x) {
  volatile double v = x;
  return std::tanh(v);
}

TEST(SmoothStepTrain, TanhIsExactlyOneFromTheSaturationCutoff) {
  EXPECT_EQ(runtime_tanh(kSat), 1.0);
  EXPECT_EQ(runtime_tanh(-kSat), -1.0);
  double x = kSat;
  for (int i = 0; i < 4096; ++i) {  // the first ulps above the cutoff
    x = std::nextafter(x, kInf);
    ASSERT_EQ(runtime_tanh(x), 1.0) << x;
    ASSERT_EQ(runtime_tanh(-x), -1.0) << x;
  }
  for (x = kSat; x < 64.0; x += 1.0 / 1024.0) {  // dense sweep above it
    ASSERT_EQ(runtime_tanh(x), 1.0) << x;
    ASSERT_EQ(runtime_tanh(-x), -1.0) << x;
  }
  for (const double big : {1e3, 1e10, 1e300,
                           std::numeric_limits<double>::max(), kInf}) {
    EXPECT_EQ(runtime_tanh(big), 1.0) << big;
    EXPECT_EQ(runtime_tanh(-big), -1.0) << big;
  }
}

TEST(SmoothStepTrain, MatchesTheFullLoopBitForBitAcrossWidths) {
  // ~10 s step spacing; widths from far below it to far above it, and
  // amplitudes spanning 18 decades of both signs, so the prefix sums round
  // at every step and any reordering of the additions shows.
  Rng rng(2024);
  std::vector<SmoothStepTrain::Step> steps;
  double t = 0.0;
  for (int i = 0; i < 120; ++i) {
    t += rng.uniform(2.0, 18.0);
    const double a = rng.log_uniform(1e-9, 1e9);
    steps.push_back({t, rng.uniform(0.0, 1.0) < 0.5 ? -a : a});
  }
  for (const double width : {1e-4, 0.05, 1.0, 10.0, 300.0, 1e5})
    expect_bitwise_equal(steps, width, 3.7, probe_times(steps, width));
}

TEST(SmoothStepTrain, MatchesTheFullLoopForASingleStep) {
  const std::vector<SmoothStepTrain::Step> one = {{100.0, 4.0}};
  for (const double width : {1e-3, 2.0, 1e4})
    expect_bitwise_equal(one, width, 1.0, probe_times(one, width));
}

TEST(SmoothStepTrain, MatchesTheFullLoopWhenTheSumIsSignedZero) {
  // Baseline -0.0: the ±0.0 terms of steps far ahead of t can flip the
  // sum to +0.0, so value() must finish the loop there (and only there).
  const std::vector<SmoothStepTrain::Step> mixed = {
      {0.0, -1.0}, {10.0, 2.0}, {20.0, -0.0}, {30.0, 0.0}};
  const std::vector<SmoothStepTrain::Step> negative = {
      {0.0, -1.0}, {10.0, -0.0}, {20.0, -3.0}};
  const std::vector<SmoothStepTrain::Step> settled_zero = {{0.0, -0.0},
                                                           {100.0, 1.0}};
  for (const double width : {0.1, 1.0}) {
    expect_bitwise_equal(mixed, width, -0.0, probe_times(mixed, width));
    expect_bitwise_equal(negative, width, -0.0, probe_times(negative, width));
    expect_bitwise_equal(settled_zero, width, -0.0,
                         probe_times(settled_zero, width));
  }
  // Before every step: the loop's -0.0 + -0.0 + +0.0 ... ends at +0.0.
  EXPECT_FALSE(std::signbit(SmoothStepTrain(mixed, 1.0, -0.0).value(-1e6)));
  EXPECT_TRUE(std::signbit(SmoothStepTrain(negative, 1.0, -0.0).value(-1e6)));
  // A settled -0.0 amplitude keeps the sum at -0.0 until the pending +0.0.
  EXPECT_FALSE(
      std::signbit(SmoothStepTrain(settled_zero, 1.0, -0.0).value(50.0)));
}

TEST(SmoothStepTrain, NonFiniteStepsThrow) {
  EXPECT_THROW(SmoothStepTrain({{1.0, kInf}}, 1.0), std::invalid_argument);
  EXPECT_THROW(
      SmoothStepTrain({{std::numeric_limits<double>::quiet_NaN(), 1.0}}, 1.0),
      std::invalid_argument);
}

TEST(Composite, SumsPartsAndTakesMaxBandwidth) {
  auto a = std::make_shared<SumOfSines>(std::vector<Tone>{{1.0, 1.0, 0.0}});
  auto b = std::make_shared<SumOfSines>(std::vector<Tone>{{4.0, 1.0, 0.0}});
  CompositeSignal c;
  c.add(a, 2.0);
  c.add(b, 0.5);
  EXPECT_DOUBLE_EQ(c.bandwidth_hz(), 4.0);
  EXPECT_NEAR(c.value(0.3), 2.0 * a->value(0.3) + 0.5 * b->value(0.3), 1e-12);
}

TEST(Composite, ZeroWeightPartIgnoredForBandwidth) {
  auto hi = std::make_shared<SumOfSines>(std::vector<Tone>{{100.0, 1.0, 0.0}});
  auto lo = std::make_shared<SumOfSines>(std::vector<Tone>{{1.0, 1.0, 0.0}});
  CompositeSignal c;
  c.add(lo, 1.0);
  c.add(hi, 0.0);
  EXPECT_DOUBLE_EQ(c.bandwidth_hz(), 1.0);
}

TEST(Composite, NullPartThrows) {
  CompositeSignal c;
  EXPECT_THROW(c.add(nullptr), std::invalid_argument);
}

TEST(Piecewise, SwitchesSegmentsAtBoundaries) {
  auto calm = std::make_shared<SumOfSines>(std::vector<Tone>{{0.1, 1.0, 0.0}});
  auto busy = std::make_shared<SumOfSines>(std::vector<Tone>{{5.0, 1.0, 0.0}});
  const PiecewiseSignal pw({calm, busy, calm}, {100.0, 200.0});
  EXPECT_DOUBLE_EQ(pw.bandwidth_hz(), 5.0);
  EXPECT_DOUBLE_EQ(pw.value(50.5), calm->value(50.5));
  EXPECT_DOUBLE_EQ(pw.value(150.0), busy->value(150.0));
  EXPECT_DOUBLE_EQ(pw.value(250.5), calm->value(250.5));
}

TEST(Piecewise, MismatchedSwitchTimesThrow) {
  auto s = std::make_shared<SumOfSines>(std::vector<Tone>{{1.0, 1.0, 0.0}});
  EXPECT_THROW(PiecewiseSignal({s, s}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(PiecewiseSignal({s, s, s}, {2.0, 1.0}), std::invalid_argument);
}

TEST(Generators, BandlimitedProcessHasAdvertisedBandwidth) {
  Rng rng(5);
  const auto proc = make_bandlimited_process(/*bw=*/0.01, /*rms=*/2.0, 32, rng);
  EXPECT_DOUBLE_EQ(proc->bandwidth_hz(), 0.01);
  // Spectral check on a long sample.
  const auto rs = proc->sample(0.0, 1.0 / 0.08, 8192);
  EXPECT_LT(energy_above(rs, 0.0101), 1e-6);
}

TEST(Generators, BandlimitedProcessRmsApproximatelyCorrect) {
  Rng rng(6);
  const auto proc = make_bandlimited_process(0.05, 3.0, 48, rng, /*dc=*/10.0);
  const auto rs = proc->sample(0.0, 2.0, 1 << 15);
  double m = 0.0;
  for (double v : rs.values()) m += v;
  m /= static_cast<double>(rs.size());
  double var = 0.0;
  for (double v : rs.values()) var += (v - m) * (v - m);
  var /= static_cast<double>(rs.size());
  EXPECT_NEAR(m, 10.0, 1.0);
  EXPECT_NEAR(std::sqrt(var), 3.0, 1.0);
}

TEST(Generators, BurstProcessCoversDurationAndStaysBandlimited) {
  Rng rng(7);
  const auto proc = make_burst_process(/*duration=*/3600.0, /*rate=*/0.01,
                                       /*sigma=*/10.0, /*amp=*/5.0, rng);
  const double bw = proc->bandwidth_hz();
  EXPECT_NEAR(bw, 0.8365 / 10.0, 0.01);  // sigma=10 s -> ~0.084 Hz
  const auto rs = proc->sample(0.0, 1.0, 3600);
  EXPECT_LT(energy_above(rs, bw), 0.02);
}

TEST(Generators, FlapProcessAlternatesBounded) {
  Rng rng(8);
  const auto proc = make_flap_process(86400.0, 10.0 / 86400.0, 100.0, 4.0,
                                      rng, 1.0);
  // Levels stay within baseline .. baseline + amplitude (alternating steps).
  double lo = 1e300, hi = -1e300;
  for (int i = 0; i < 2000; ++i) {
    const double v = proc->value(i * 43.2);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(lo, 0.9);
  EXPECT_LT(hi, 5.1);
}

TEST(Generators, DiurnalFundamentalIsOneDay) {
  Rng rng(9);
  const auto d = make_diurnal(6.0, 3, rng, 20.0);
  EXPECT_NEAR(d->bandwidth_hz(), 3.0 / 86400.0, 1e-12);
  // Value oscillates around the DC offset with ~the requested swing.
  double lo = 1e300, hi = -1e300;
  for (int i = 0; i < 288; ++i) {
    const double v = d->value(i * 300.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(hi - lo, 2.0);
  EXPECT_LT(hi - lo, 9.0);
  EXPECT_GT(lo, 20.0 - 5.0);
  EXPECT_LT(hi, 20.0 + 5.0);
}

TEST(Generators, SeededDeterminism) {
  Rng a(123), b(123);
  const auto pa = make_bandlimited_process(0.01, 1.0, 16, a);
  const auto pb = make_bandlimited_process(0.01, 1.0, 16, b);
  for (double t : {0.0, 10.0, 123.4}) {
    EXPECT_DOUBLE_EQ(pa->value(t), pb->value(t));
  }
}

}  // namespace
