// Runtime-dispatched SIMD kernels for the FFT's inner loops.
//
// Four kernels, the ones dsp/fft.cc calls, have two implementations —
// scalar (the reference) and AVX2 — selected once per process (CPU
// detection, overridable via the NYQMON_SIMD environment variable or
// set_level(), both test hooks). The contract that makes the dispatch
// invisible to the rest of the system:
//
//   Both levels produce BIT-IDENTICAL results for every input — denormal,
//   signed-zero and infinite values included — except that an element
//   whose result is NaN may carry a different NaN payload/sign per level
//   (it is NaN at both levels, never finite at one and NaN at the other).
//
// The NaN carve-out is forced, not chosen: when an operation has two NaN
// operands (or creates NaN, e.g. inf*0 vs a propagated quiet NaN), IEEE-754
// leaves the result payload unspecified, and the compiler may legally
// commute the scalar reference's adds — so no pair of implementations can
// promise payload-exact NaN bits. Everything else holds by construction,
// not by tolerance:
//   * the AVX2 kernels perform the exact same IEEE-754 operations in the
//     exact same per-element order as the scalar ones — no FMA contraction
//     anywhere (the build compiles with -ffp-contract=off, and -mno-fma on
//     x86, so the scalar reference cannot be silently fused either);
//   * subtractions are real subtractions (never the xor-sign-flip-then-add
//     shortcut, whose NaN sign propagation differs).
//
// This is what lets the engine's 1-vs-N-worker determinism digests and the
// storage layer's cold-start bit-identity guarantees hold unchanged
// whatever the host CPU: scalar and AVX2 fleets compute the same bits.
//
// Why only the FFT kernels (bench_engine_throughput at one worker, 4-core
// x86-64 host, gcc 12.2, 10 alternating pairs, each stage divided by the
// acquire stage, which runs no kernel): forcing scalar raises the fft
// stage by 25-28%, detect/estimate by 17% and reconstruct by 9-13%, and
// AVX2 wins every pair. The other DSP loops (elementwise multiply and
// subtract, striped sum and dot, squared magnitude, axpy, four-lane
// Goertzel) are plain scalar code in their callers (dsp/kernels.h,
// psd.cc, goertzel.cc, compressive.cc): AVX2 variants of them moved no
// stage beyond the run-to-run spread (fft +0.2% to +4.4%, detect -0.3% to
// +4.7%, reconstruct +0.4% to +1.4%) and tied on every perfbench
// fleet_ingest metric. x86 hosts without AVX2 run the scalar kernels; a
// 128-bit level measured within 8% of scalar on every DSP microbench.
//
// Complex data is std::complex<double> viewed as interleaved re,im pairs
// (layout guaranteed by the standard). All kernels accept unaligned
// pointers and arbitrary (including odd) lengths; tails run scalar-width
// code that is part of each kernel's definition.
#pragma once

#include <complex>
#include <cstddef>

namespace nyqmon::dsp::simd {

using cdouble = std::complex<double>;

/// Instruction-set level of a kernel table. Order is ascending capability.
enum class Level { kScalar = 0, kAVX2 = 1 };

/// Highest level this CPU supports (kAVX2 on x86 CPUs that have it,
/// kScalar everywhere else).
Level detected_level();

/// The level the process is currently dispatching to. Defaults to
/// detected_level() clamped by the NYQMON_SIMD environment variable
/// ("scalar" | "avx2"; any other value keeps the detected level), read
/// once on first use.
Level active_level();

/// Force the dispatch level (clamped to detected_level()). Returns the
/// level actually installed. Test hook — also how the sanitizer CI legs
/// force both dispatch paths.
Level set_level(Level level);

/// Human-readable level name ("scalar", "avx2").
const char* level_name(Level level);

/// One kernel table. ops_for() exposes each level's table directly so the
/// equivalence tests can compare implementations without racing on the
/// process-wide dispatch state.
struct Ops {
  // One radix-2 butterfly sub-block over a contiguous half-length:
  //   for k in [0, half):  u = x[k]; v = x[k+half] * tw[k];
  //                        x[k] = u + v; x[k+half] = u - v;
  // with the complex product expanded as (wr*vr - wi*vi, wr*vi + wi*vr).
  void (*fft_butterfly_block)(cdouble* x, const cdouble* tw,
                              std::size_t half);
  // a[i] *= b[i], plain complex product (no Annex-G NaN recovery).
  void (*complex_mul_inplace)(cdouble* a, const cdouble* b, std::size_t n);
  // out[i] = a[i] * b[i], same product definition.
  void (*complex_mul)(cdouble* out, const cdouble* a, const cdouble* b,
                      std::size_t n);
  // Component-wise z[i] /= c for complex data (the inverse FFT's 1/N keeps
  // true division).
  void (*div_scalar_complex_inplace)(cdouble* x, double c, std::size_t n);

  const char* name;
  Level level;
};

/// The table for `level`, or nullptr when this build/CPU cannot run it.
/// ops_for(kScalar) is always available.
const Ops* ops_for(Level level);

/// The table active_level() dispatches to.
const Ops& ops();

}  // namespace nyqmon::dsp::simd
