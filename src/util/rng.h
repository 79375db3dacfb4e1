// Seeded random-number facade.
//
// Everything stochastic in nyqmon (synthetic signals, fleet generation,
// pollers with jitter/loss) draws through Rng so that a single 64-bit seed
// reproduces an entire experiment.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "util/check.h"

namespace nyqmon {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derive an independent child stream; used to give each device/metric its
  /// own stream so fleet composition changes do not perturb other devices.
  Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    NYQMON_CHECK(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    NYQMON_CHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Log-uniform double in [lo, hi); lo must be > 0.
  double log_uniform(double lo, double hi) {
    NYQMON_CHECK(lo > 0.0 && lo <= hi);
    return std::exp(uniform(std::log(lo), std::log(hi)));
  }

  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  double exponential(double rate) {
    NYQMON_CHECK(rate > 0.0);
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Pareto with scale x_m > 0 and shape alpha > 0 (heavy-tailed).
  double pareto(double x_m, double alpha) {
    NYQMON_CHECK(x_m > 0.0 && alpha > 0.0);
    const double u = uniform(std::numeric_limits<double>::min(), 1.0);
    return x_m / std::pow(u, 1.0 / alpha);
  }

  bool bernoulli(double p) {
    NYQMON_CHECK(p >= 0.0 && p <= 1.0);
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Pick a uniformly random element index from a container of size n.
  std::size_t index(std::size_t n) {
    NYQMON_CHECK(n > 0);
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace nyqmon
