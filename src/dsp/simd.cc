#include "dsp/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define NYQMON_SIMD_X86 1
#include <immintrin.h>
#else
#define NYQMON_SIMD_X86 0
#endif

namespace nyqmon::dsp::simd {

namespace {

// The double-pair view of std::complex<double> (standard-guaranteed
// layout: [re, im]).
inline double* flat(cdouble* p) { return reinterpret_cast<double*>(p); }
inline const double* flat(const cdouble* p) {
  return reinterpret_cast<const double*>(p);
}

// ------------------------------------------------------------- scalar ----
// The reference implementations. The AVX2 variants below perform these
// exact operations in this exact per-element order.

void butterfly_scalar(cdouble* x, const cdouble* tw, std::size_t half) {
  double* xd = flat(x);
  const double* twd = flat(tw);
  for (std::size_t k = 0; k < half; ++k) {
    const double wr = twd[2 * k], wi = twd[2 * k + 1];
    const double vr = xd[2 * (k + half)], vi = xd[2 * (k + half) + 1];
    const double tr = wr * vr - wi * vi;
    const double ti = wr * vi + wi * vr;
    const double ur = xd[2 * k], ui = xd[2 * k + 1];
    xd[2 * k] = ur + tr;
    xd[2 * k + 1] = ui + ti;
    xd[2 * (k + half)] = ur - tr;
    xd[2 * (k + half) + 1] = ui - ti;
  }
}

void complex_mul_scalar(cdouble* out, const cdouble* a, const cdouble* b,
                        std::size_t n) {
  double* od = flat(out);
  const double* ad = flat(a);
  const double* bd = flat(b);
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = ad[2 * i], ai = ad[2 * i + 1];
    const double br = bd[2 * i], bi = bd[2 * i + 1];
    const double re = ar * br - ai * bi;
    od[2 * i] = re;  // `out` may alias `a`; finish reading first
    od[2 * i + 1] = ar * bi + ai * br;
  }
}

void complex_mul_inplace_scalar(cdouble* a, const cdouble* b, std::size_t n) {
  complex_mul_scalar(a, a, b, n);
}

void div_scalar_complex_inplace_scalar(cdouble* x, double c, std::size_t n) {
  double* xd = flat(x);
  for (std::size_t i = 0; i < 2 * n; ++i) xd[i] /= c;
}

constexpr Ops kScalarOps = {
    butterfly_scalar,
    complex_mul_inplace_scalar,
    complex_mul_scalar,
    div_scalar_complex_inplace_scalar,
    "scalar",
    Level::kScalar,
};

#if NYQMON_SIMD_X86

// --------------------------------------------------------------- AVX2 ----
// Two complexes (or four doubles) per 256-bit vector, compiled via target
// attributes so the baseline build still runs on hosts without AVX2. No
// FMA: multiplies and adds stay separate to match the scalar reference
// bits. _mm256_addsub_pd performs a genuine subtract in even lanes and add
// in odd lanes, which is exactly the complex-product combine the scalar
// reference performs.

// One complex product w*v for the odd tails: [wr*vr - wi*vi, wr*vi + wi*vr].
__attribute__((target("avx2"))) __m128d complex_mul1(__m128d w, __m128d v) {
  const __m128d wr = _mm_unpacklo_pd(w, w);               // [wr, wr]
  const __m128d wi = _mm_unpackhi_pd(w, w);               // [wi, wi]
  const __m128d vs = _mm_shuffle_pd(v, v, 0b01);          // [vi, vr]
  const __m128d t1 = _mm_mul_pd(wr, v);                   // [wr*vr, wr*vi]
  const __m128d t2 = _mm_mul_pd(wi, vs);                  // [wi*vi, wi*vr]
  return _mm_shuffle_pd(_mm_sub_pd(t1, t2), _mm_add_pd(t1, t2), 0b10);
}

__attribute__((target("avx2"))) void butterfly_avx2(cdouble* x,
                                                    const cdouble* tw,
                                                    std::size_t half) {
  double* xd = flat(x);
  const double* twd = flat(tw);
  std::size_t k = 0;
  for (; k + 2 <= half; k += 2) {
    const __m256d w = _mm256_loadu_pd(twd + 2 * k);
    const __m256d v = _mm256_loadu_pd(xd + 2 * (k + half));
    const __m256d u = _mm256_loadu_pd(xd + 2 * k);
    const __m256d wr = _mm256_movedup_pd(w);              // [wr0,wr0,wr1,wr1]
    const __m256d wi = _mm256_permute_pd(w, 0b1111);      // [wi0,wi0,wi1,wi1]
    const __m256d vs = _mm256_permute_pd(v, 0b0101);      // [vi0,vr0,vi1,vr1]
    const __m256d t1 = _mm256_mul_pd(wr, v);
    const __m256d t2 = _mm256_mul_pd(wi, vs);
    const __m256d wv = _mm256_addsub_pd(t1, t2);
    _mm256_storeu_pd(xd + 2 * k, _mm256_add_pd(u, wv));
    _mm256_storeu_pd(xd + 2 * (k + half), _mm256_sub_pd(u, wv));
  }
  if (k < half) {  // odd tail: one complex
    const __m128d u = _mm_loadu_pd(xd + 2 * k);
    const __m128d wv = complex_mul1(_mm_loadu_pd(twd + 2 * k),
                                    _mm_loadu_pd(xd + 2 * (k + half)));
    _mm_storeu_pd(xd + 2 * k, _mm_add_pd(u, wv));
    _mm_storeu_pd(xd + 2 * (k + half), _mm_sub_pd(u, wv));
  }
}

__attribute__((target("avx2"))) void complex_mul_avx2(cdouble* out,
                                                      const cdouble* a,
                                                      const cdouble* b,
                                                      std::size_t n) {
  double* od = flat(out);
  const double* ad = flat(a);
  const double* bd = flat(b);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d av = _mm256_loadu_pd(ad + 2 * i);
    const __m256d bv = _mm256_loadu_pd(bd + 2 * i);
    const __m256d ar = _mm256_movedup_pd(av);
    const __m256d ai = _mm256_permute_pd(av, 0b1111);
    const __m256d bs = _mm256_permute_pd(bv, 0b0101);
    const __m256d t1 = _mm256_mul_pd(ar, bv);
    const __m256d t2 = _mm256_mul_pd(ai, bs);
    _mm256_storeu_pd(od + 2 * i, _mm256_addsub_pd(t1, t2));
  }
  if (i < n)  // odd tail: one complex
    _mm_storeu_pd(od + 2 * i, complex_mul1(_mm_loadu_pd(ad + 2 * i),
                                           _mm_loadu_pd(bd + 2 * i)));
}

__attribute__((target("avx2"))) void complex_mul_inplace_avx2(
    cdouble* a, const cdouble* b, std::size_t n) {
  complex_mul_avx2(a, a, b, n);
}

__attribute__((target("avx2"))) void div_scalar_complex_inplace_avx2(
    cdouble* x, double c, std::size_t n) {
  double* xd = flat(x);
  const __m256d cv = _mm256_set1_pd(c);
  std::size_t i = 0;
  for (; i + 4 <= 2 * n; i += 4)
    _mm256_storeu_pd(xd + i, _mm256_div_pd(_mm256_loadu_pd(xd + i), cv));
  for (; i < 2 * n; ++i) xd[i] /= c;
}

constexpr Ops kAvx2Ops = {
    butterfly_avx2,
    complex_mul_inplace_avx2,
    complex_mul_avx2,
    div_scalar_complex_inplace_avx2,
    "avx2",
    Level::kAVX2,
};

#endif  // NYQMON_SIMD_X86

// ----------------------------------------------------------- dispatch ----

std::atomic<const Ops*> g_active{nullptr};

Level env_level(Level fallback) {
  const char* env = std::getenv("NYQMON_SIMD");
  if (env == nullptr) return fallback;
  if (std::strcmp(env, "scalar") == 0) return Level::kScalar;
  if (std::strcmp(env, "avx2") == 0) return Level::kAVX2;
  return fallback;  // unknown value: keep the detected level
}

void ensure_init() {
  static const bool done = [] {
    const Ops* ops = ops_for(env_level(detected_level()));
    if (ops == nullptr) ops = ops_for(detected_level());
    g_active.store(ops, std::memory_order_release);
    return true;
  }();
  (void)done;
}

}  // namespace

Level detected_level() {
#if NYQMON_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Level::kAVX2;
#endif
  return Level::kScalar;
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAVX2: return "avx2";
  }
  return "unknown";
}

const Ops* ops_for(Level level) {
  if (level > detected_level()) return nullptr;
#if NYQMON_SIMD_X86
  if (level == Level::kAVX2) return &kAvx2Ops;
#endif
  return &kScalarOps;
}

Level active_level() {
  ensure_init();
  return g_active.load(std::memory_order_acquire)->level;
}

Level set_level(Level level) {
  ensure_init();
  const Ops* ops = ops_for(level);
  if (ops == nullptr) ops = &kScalarOps;
  g_active.store(ops, std::memory_order_release);
  return ops->level;
}

const Ops& ops() {
  ensure_init();
  return *g_active.load(std::memory_order_acquire);
}

}  // namespace nyqmon::dsp::simd
