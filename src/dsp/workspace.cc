#include "dsp/workspace.h"

#include <cmath>
#include <numbers>

#include "dsp/fft.h"
#include "util/check.h"

namespace nyqmon::dsp {

namespace {

constexpr double kPi = std::numbers::pi;
constexpr std::size_t kPlanCacheCapBytes = 16ull << 20;

std::size_t vec_bytes_cd(const std::vector<cdouble>& v) {
  return v.size() * sizeof(cdouble);
}

}  // namespace

// ---------------------------------------------------------------- plans ----

const Workspace::Radix2Plan& Workspace::radix2_plan(std::size_t n) {
  NYQMON_CHECK(is_power_of_two(n));
  auto it = radix2_.find(n);
  if (it != radix2_.end()) return it->second;
  maybe_flush_plans();

  Radix2Plan plan;
  plan.n = n;
  plan.forward.reserve(n > 1 ? n - 1 : 0);
  plan.inverse.reserve(n > 1 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double angle =
          -2.0 * kPi * static_cast<double>(k) / static_cast<double>(len);
      const double c = std::cos(angle), s = std::sin(angle);
      plan.forward.emplace_back(c, s);
      plan.inverse.emplace_back(c, -s);
    }
  }
  ++plan_builds_;
  plan_cache_bytes_ += vec_bytes_cd(plan.forward) + vec_bytes_cd(plan.inverse);
  return radix2_.emplace(n, std::move(plan)).first->second;
}

const Workspace::BluesteinPlan& Workspace::bluestein_plan(std::size_t n,
                                                          bool inverse) {
  NYQMON_CHECK(n >= 1);
  const auto key = std::make_pair(n, inverse);
  auto it = bluestein_.find(key);
  if (it != bluestein_.end()) return it->second;
  maybe_flush_plans();

  const double sign = inverse ? 1.0 : -1.0;
  BluesteinPlan plan;
  plan.n = n;
  plan.m = next_power_of_two(2 * n - 1);
  // Chirp w[k] = exp(sign * i * pi * k^2 / n); k^2 mod 2n keeps the phase
  // argument bounded for large n.
  plan.chirp.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle =
        sign * kPi * static_cast<double>(k2) / static_cast<double>(n);
    plan.chirp[k] = cdouble(std::cos(angle), std::sin(angle));
  }
  // b[k] = conj(w[k]) wrapped circularly; its forward FFT is what the
  // convolution multiplies by, so cache the spectrum and save one of the
  // three radix-2 FFTs every Bluestein call performed before.
  std::vector<cdouble> b(plan.m, cdouble(0, 0));
  b[0] = std::conj(plan.chirp[0]);
  for (std::size_t k = 1; k < n; ++k)
    b[k] = b[plan.m - k] = std::conj(plan.chirp[k]);
  fft_radix2_run(b.data(), plan.m, /*inverse=*/false);
  plan.b_fft = std::move(b);

  ++plan_builds_;
  plan_cache_bytes_ += vec_bytes_cd(plan.chirp) + vec_bytes_cd(plan.b_fft);
  return bluestein_.emplace(key, std::move(plan)).first->second;
}

const std::vector<cdouble>& Workspace::rfft_unpack_table(std::size_t n) {
  NYQMON_CHECK(n >= 2 && n % 2 == 0);
  auto it = rfft_unpack_.find(n);
  if (it != rfft_unpack_.end()) return it->second;
  maybe_flush_plans();

  std::vector<cdouble> tw(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const double angle =
        -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n);
    tw[k] = cdouble(std::cos(angle), std::sin(angle));
  }
  ++plan_builds_;
  plan_cache_bytes_ += vec_bytes_cd(tw);
  return rfft_unpack_.emplace(n, std::move(tw)).first->second;
}

const Workspace::WindowEntry& Workspace::window_entry(WindowType type,
                                                      std::size_t n,
                                                      bool symmetric) {
  const auto key = std::make_tuple(static_cast<int>(type), n, symmetric);
  auto it = windows_.find(key);
  if (it != windows_.end()) return it->second;
  maybe_flush_plans();

  WindowEntry entry;
  entry.coeffs = make_window(type, n, symmetric);
  entry.energy = 0.0;
  for (double v : entry.coeffs) entry.energy += v * v;
  ++plan_builds_;
  plan_cache_bytes_ += entry.coeffs.size() * sizeof(double);
  return windows_.emplace(key, std::move(entry)).first->second;
}

const std::vector<double>& Workspace::window(WindowType type, std::size_t n,
                                             bool symmetric) {
  return window_entry(type, n, symmetric).coeffs;
}

double Workspace::window_energy(WindowType type, std::size_t n,
                                bool symmetric) {
  return window_entry(type, n, symmetric).energy;
}

void Workspace::reset() {
  radix2_.clear();
  bluestein_.clear();
  rfft_unpack_.clear();
  windows_.clear();
  plan_cache_bytes_ = 0;
}

void Workspace::maybe_flush_plans() {
  if (plan_cache_bytes_ <= kPlanCacheCapBytes) return;
  reset();
  ++cache_flushes_;
}

Workspace& this_thread_workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace nyqmon::dsp
