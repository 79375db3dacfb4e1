// Per-thread DSP workspace: the plan caches behind the FFT and windowing.
//
// A fleet run processes hundreds of thousands of windows, and
// before this existed every FFT call recomputed its twiddle factors (67% of
// fleet CPU went to the radix-2 FFT alone), every Bluestein transform
// rebuilt its chirp and re-transformed the b sequence, and every
// periodogram regenerated its window with a cos() per coefficient. The
// workspace makes all of that a once-per-shape cost:
//
//   * radix-2 twiddle plans (forward + inverse tables, per stage);
//   * Bluestein plans (chirp + the cached FFT of the b sequence — saves one
//     of the three radix-2 FFTs per call plus all the chirp trig);
//   * rfft unpack twiddle tables;
//   * window coefficient vectors and their energies.
//
// Plans affect the computed bits (a twiddle table is more accurate than the
// w *= wlen recurrence it replaced), but identically so at every SIMD
// dispatch level — the bit-identity contract in simd.h is between levels,
// and every plan is built by shared scalar code.
//
// The workspace holds plans only. Transient DSP buffers are plain vectors
// owned by the call that needs them: each DSP call already returns a fresh
// vector, and the sanitizer builds see every buffer as its own allocation.
//
// A Workspace is single-threaded by design; this_thread_workspace() hands
// each thread that runs DSP code (a runtime poll worker, a query worker)
// its own instance.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "dsp/window.h"

namespace nyqmon::dsp {

using cdouble = std::complex<double>;

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  // ------------------------------------------------------------ plans ----

  // Twiddle tables for the iterative radix-2 FFT of size n. Stage
  // len = 2, 4, ..., n contributes len/2 consecutive entries
  // exp(sign*2*pi*i*k/len), k in [0, len/2); stages are concatenated in
  // ascending len order (total n-1 entries).
  struct Radix2Plan {
    std::size_t n = 0;
    std::vector<cdouble> forward;  // sign = -1
    std::vector<cdouble> inverse;  // sign = +1
  };
  const Radix2Plan& radix2_plan(std::size_t n);

  // Bluestein chirp-z plan for an arbitrary-length DFT of size n.
  struct BluesteinPlan {
    std::size_t n = 0;
    std::size_t m = 0;  // next_power_of_two(2n - 1)
    std::vector<cdouble> chirp;     // w[k] = exp(sign*i*pi*k^2/n), length n
    std::vector<cdouble> b_fft;     // forward FFT of the b sequence, length m
  };
  const BluesteinPlan& bluestein_plan(std::size_t n, bool inverse);

  // Unpack twiddles for the packed real FFT of (even) size n:
  // exp(-2*pi*i*k/n) for k in [0, n/2].
  const std::vector<cdouble>& rfft_unpack_table(std::size_t n);

  // Cached window coefficients / energy (sum of squared coefficients).
  const std::vector<double>& window(WindowType type, std::size_t n,
                                    bool symmetric = false);
  double window_energy(WindowType type, std::size_t n,
                       bool symmetric = false);

  /// Drop every plan cache (counters are cumulative and survive). The test
  /// hook for forcing re-warmup.
  void reset();

  // --------------------------------------------------------- counters ----

  // Plan and window cache builds; flat once every shape a thread sees has
  // been built.
  std::uint64_t plan_builds() const { return plan_builds_; }
  // Times the plan caches overflowed their byte cap and were dropped.
  std::uint64_t cache_flushes() const { return cache_flushes_; }
  std::size_t plan_cache_bytes() const { return plan_cache_bytes_; }

 private:
  void maybe_flush_plans();

  std::map<std::size_t, Radix2Plan> radix2_;
  std::map<std::pair<std::size_t, bool>, BluesteinPlan> bluestein_;
  std::map<std::size_t, std::vector<cdouble>> rfft_unpack_;
  struct WindowEntry {
    std::vector<double> coeffs;
    double energy = 0.0;
  };
  std::map<std::tuple<int, std::size_t, bool>, WindowEntry> windows_;
  const WindowEntry& window_entry(WindowType type, std::size_t n,
                                  bool symmetric);

  std::size_t plan_cache_bytes_ = 0;
  std::uint64_t plan_builds_ = 0;
  std::uint64_t cache_flushes_ = 0;
};

/// The calling thread's workspace (created on first use); the DSP kernels
/// draw their plans from it.
Workspace& this_thread_workspace();

}  // namespace nyqmon::dsp
