#include "fixtures.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "harness.h"

namespace perfbench {

namespace {

using namespace nyqmon;

constexpr double kTwoPi = 6.283185307179586;

/// Metric kinds the streams cycle through, with their collection rates
/// (all at most 1 Hz).
struct Kind {
  const char* name;
  double rate_hz;
};
constexpr Kind kKinds[] = {
    {"cpu", 1.0}, {"mem", 0.5}, {"temp", 0.25}, {"drops", 1.0}};

double unit_interval(std::uint64_t x) {
  return static_cast<double>(mix64(x) >> 11) * 0x1.0p-53;
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Population::Population(std::uint64_t seed, std::size_t streams)
    : seed_(seed) {
  for (std::size_t s = 0; s < streams; ++s) {
    const Kind& kind = kKinds[s % std::size(kKinds)];
    const std::size_t device = s / std::size(kKinds);
    names_.push_back("rack" + std::to_string(device / 8) + "-dev" +
                     std::to_string(device) + "/" + kind.name);
    rates_.push_back(kind.rate_hz);
    const std::uint64_t key = mix64(seed ^ mix64(s + 1));
    level_.push_back(10.0 + 90.0 * unit_interval(key + 1));
    amplitude_.push_back(1.0 + 9.0 * unit_interval(key + 2));
    // Periods between a minute and an hour.
    frequency_.push_back(1.0 / (60.0 + 3540.0 * unit_interval(key + 3)));
    phase_.push_back(kTwoPi * unit_interval(key + 4));
  }
}

void Population::fill(std::size_t s, std::uint64_t first,
                      std::vector<double>& out) const {
  const std::uint64_t key = mix64(seed_ ^ (0x5bd1e995ull * (s + 1)));
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t n = first + i;
    const double t = static_cast<double>(n) / rates_[s];
    const double noise = unit_interval(key + n) - 0.5;
    out[i] = level_[s] +
             amplitude_[s] * std::sin(kTwoPi * frequency_[s] * t + phase_[s]) +
             0.05 * amplitude_[s] * noise;
  }
}

void Population::preload(mon::StripedRetentionStore& store,
                         std::size_t values, std::size_t batch) const {
  std::vector<double> slice;
  for (std::size_t s = 0; s < size(); ++s) {
    store.create_stream(names_[s], rates_[s], 0.0);
    for (std::uint64_t first = 0; first < values; first += batch) {
      slice.resize(std::min<std::uint64_t>(batch, values - first));
      fill(s, first, slice);
      store.append_series(names_[s], slice);
    }
  }
}

std::uint64_t Population::digest(std::size_t values) const {
  std::uint64_t h = kFoldSeed;
  std::vector<double> head(std::min<std::size_t>(values, 16));
  for (std::size_t s = 0; s < size(); ++s) {
    h = fold(h, std::hash<std::string>{}(names_[s]));
    fill(s, 0, head);
    for (const double v : head) h = fold(h, std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

mon::StoreConfig store_config() {
  mon::StoreConfig config;
  config.chunk_samples = 128;
  return config;
}

srv::ClientOptions client_options() {
  srv::ClientOptions options;
  options.connect_timeout_ms = 5000;
  options.io_timeout_ms = 30000;
  return options;
}

bool same_answer(const srv::QueryReply& reply,
                 const qry::QueryResult& expected) {
  if (reply.matched != expected.matched.size() ||
      reply.reconstructed != expected.reconstructed.size() ||
      reply.series.size() != expected.series.size())
    return false;
  for (std::size_t i = 0; i < reply.series.size(); ++i) {
    const qry::QuerySeries& a = reply.series[i];
    const qry::QuerySeries& b = expected.series[i];
    if (a.label != b.label || a.series.t0() != b.series.t0() ||
        a.series.dt() != b.series.dt() ||
        !same_bits(a.series.values(), b.series.values()))
      return false;
  }
  return true;
}

}  // namespace perfbench
