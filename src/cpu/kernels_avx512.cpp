// AVX-512 (F/BW/DQ/VL + FMA) kernel variants: the AVX2 structure widened
// to 16 float lanes. This TU (alone) is compiled with -mavx512* flags and
// is only reached through the dispatch tables on hosts that support it.
// See kernels_avx2.cpp for the numerics notes (exp polynomial, double
// sum accumulation, exact-zero underflow for masked logits) — identical
// here, lane width aside.

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "cpu/variants.h"

namespace kf::cpu::avx512 {

namespace {

// GCC 12.2's headers build the unmasked forms of several AVX-512
// intrinsics (extracts and 512->256 casts, min/max, conversions,
// roundscale, shifts) on a self-initialized _mm512_undefined_*()
// passthrough, which C++ -Wall reports as an uninitialized read once
// inlined. The zero-masking forms with every lane selected compute the
// same lanes from a defined passthrough (and compile to the unmasked
// instruction), so this file uses them instead.
constexpr __mmask16 kAll16 = 0xFFFF;
constexpr __mmask8 kAll8 = 0xFF;

/// The low (`Half` 0) or high (1) 256 bits of `v`.
template <int Half>
inline __m256 half_ps(__m512 v) {
  return _mm512_maskz_extractf32x8_ps(kAll8, v, Half);
}
template <int Half>
inline __m256d half_pd(__m512d v) {
  return _mm512_maskz_extractf64x4_pd(kAll8, v, Half);
}

// Horizontal reductions fold the two 256-bit halves, then finish with the
// AVX2 variant's 128-bit steps: the same lane order as GCC's
// _mm512_reduce_*, so results are bit-identical to them.

/// Sum of 4 double lanes: (l0 + l2) + (l1 + l3).
inline double hsum4_pd(__m256d v) {
  const __m128d s =
      _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

/// Horizontal sum of 16 float lanes, accumulated in double.
inline double hsum_pd(__m512 v) {
  const __m512d lo = _mm512_maskz_cvtps_pd(kAll8, half_ps<0>(v));
  const __m512d hi = _mm512_maskz_cvtps_pd(kAll8, half_ps<1>(v));
  const __m512d s = _mm512_add_pd(lo, hi);
  return hsum4_pd(_mm256_add_pd(half_pd<0>(s), half_pd<1>(s)));
}

/// Horizontal sum of 16 float lanes in float.
inline float hsum_ps(__m512 v) {
  const __m256 h = _mm256_add_ps(half_ps<0>(v), half_ps<1>(v));
  const __m128 s =
      _mm_add_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps(h, 1));
  const __m128 s2 = _mm_add_ps(s, _mm_movehl_ps(s, s));
  return _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1)));
}

/// Horizontal max of 16 float lanes; operands in GCC's order (high half
/// first), which decides only which of two equal-comparing zeros wins.
inline float hmax_ps(__m512 v) {
  const __m256 h = _mm256_max_ps(half_ps<1>(v), half_ps<0>(v));
  const __m128 m =
      _mm_max_ps(_mm256_extractf128_ps(h, 1), _mm256_castps256_ps128(h));
  const __m128 m2 = _mm_max_ps(m, _mm_movehl_ps(m, m));
  return _mm_cvtss_f32(_mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 1)));
}

/// e^x for 16 lanes; same Cephes-style reduction and polynomial as the
/// AVX2 variant. Lanes below the underflow cutoff (including -inf)
/// return exactly 0.0f.
inline __m512 exp512_ps(__m512 x) {
  const __m512 k_log2e = _mm512_set1_ps(1.44269504088896341F);
  const __m512 k_c1 = _mm512_set1_ps(0.693359375F);
  const __m512 k_c2 = _mm512_set1_ps(-2.12194440e-4F);
  const __m512 k_p0 = _mm512_set1_ps(1.9875691500e-4F);
  const __m512 k_p1 = _mm512_set1_ps(1.3981999507e-3F);
  const __m512 k_p2 = _mm512_set1_ps(8.3334519073e-3F);
  const __m512 k_p3 = _mm512_set1_ps(4.1665795894e-2F);
  const __m512 k_p4 = _mm512_set1_ps(1.6666665459e-1F);
  const __m512 k_p5 = _mm512_set1_ps(5.0000001201e-1F);
  const __m512 k_one = _mm512_set1_ps(1.0F);
  const __m512 k_lowest = _mm512_set1_ps(-87.33654F);
  const __m512 k_highest = _mm512_set1_ps(88.72283F);

  const __mmask16 live = _mm512_cmp_ps_mask(x, k_lowest, _CMP_GE_OQ);
  x = _mm512_maskz_min_ps(kAll16, x, k_highest);

  const __m512 n = _mm512_maskz_roundscale_ps(
      kAll16, _mm512_mul_ps(x, k_log2e),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512 r = _mm512_fnmadd_ps(n, k_c1, x);
  r = _mm512_fnmadd_ps(n, k_c2, r);
  const __m512 r2 = _mm512_mul_ps(r, r);

  __m512 p = k_p0;
  p = _mm512_fmadd_ps(p, r, k_p1);
  p = _mm512_fmadd_ps(p, r, k_p2);
  p = _mm512_fmadd_ps(p, r, k_p3);
  p = _mm512_fmadd_ps(p, r, k_p4);
  p = _mm512_fmadd_ps(p, r, k_p5);
  p = _mm512_fmadd_ps(p, r2, _mm512_add_ps(r, k_one));

  const __m512i biased = _mm512_add_epi32(_mm512_maskz_cvtps_epi32(kAll16, n),
                                          _mm512_set1_epi32(127));
  p = _mm512_mul_ps(
      p, _mm512_castsi512_ps(_mm512_maskz_slli_epi32(kAll16, biased, 23)));
  return _mm512_maskz_mov_ps(live, p);
}

}  // namespace

float dot(const float* a, const float* b, std::size_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  float acc = hsum_ps(_mm512_add_ps(acc0, acc1));
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void matvec_rows(const float* a, const float* x, float* y, std::size_t r0,
                 std::size_t r1, std::size_t k) {
  for (std::size_t i = r0; i < r1; ++i) y[i] = dot(a + i * k, x, k);
}

void vecmat_cols(const float* x, const float* a, float* y, std::size_t n,
                 std::size_t k, std::size_t j0, std::size_t j1) {
  for (std::size_t j = j0; j < j1; ++j) y[j] = 0.0F;
  for (std::size_t i = 0; i < n; ++i) {
    const float xi = x[i];
    if (xi == 0.0F) continue;
    const float* arow = a + i * k;
    const __m512 vx = _mm512_set1_ps(xi);
    std::size_t j = j0;
    for (; j + 16 <= j1; j += 16) {
      _mm512_storeu_ps(y + j, _mm512_fmadd_ps(vx, _mm512_loadu_ps(arow + j),
                                              _mm512_loadu_ps(y + j)));
    }
    for (; j < j1; ++j) y[j] += xi * arow[j];
  }
}

void axpy(float a, const float* x, float* y, std::size_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i),
                                            _mm512_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

float max_value(const float* x, std::size_t n) {
  float m = x[0];
  std::size_t i = 0;
  if (n >= 16) {
    __m512 vm = _mm512_loadu_ps(x);
    for (i = 16; i + 16 <= n; i += 16) {
      vm = _mm512_maskz_max_ps(kAll16, vm, _mm512_loadu_ps(x + i));
    }
    m = hmax_ps(vm);
  }
  for (; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

double logsumexp(const float* x, std::size_t n) {
  const float m = max_value(x, n);
  if (m == -std::numeric_limits<float>::infinity()) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += std::exp(static_cast<double>(x[i] - m));
    }
    return static_cast<double>(m) + std::log(acc);
  }
  const __m512 vm = _mm512_set1_ps(m);
  double sum = 0.0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    sum += hsum_pd(exp512_ps(_mm512_sub_ps(_mm512_loadu_ps(x + i), vm)));
  }
  for (; i < n; ++i) sum += std::exp(static_cast<double>(x[i] - m));
  return static_cast<double>(m) + std::log(sum);
}

void softmax(const float* x, float* out, std::size_t n, double tau) {
  const float m = max_value(x, n);
  if (m == -std::numeric_limits<float>::infinity()) {
    for (std::size_t i = 0; i < n; ++i) out[i] = 0.0F;
    return;
  }
  const __m512 vm = _mm512_set1_ps(m);
  const __m512 v_inv_tau = _mm512_set1_ps(static_cast<float>(1.0 / tau));
  const bool unit_tau = tau == 1.0;
  double sum = 0.0;
  std::size_t i = 0;
  // x is read before out is written at every index: aliasing-safe.
  for (; i + 16 <= n; i += 16) {
    __m512 t = _mm512_sub_ps(_mm512_loadu_ps(x + i), vm);
    if (!unit_tau) t = _mm512_mul_ps(t, v_inv_tau);
    const __m512 e = exp512_ps(t);
    _mm512_storeu_ps(out + i, e);
    sum += hsum_pd(e);
  }
  for (; i < n; ++i) {
    const double e = std::exp(static_cast<double>(x[i] - m) / tau);
    out[i] = static_cast<float>(e);
    sum += e;
  }
  const float inv = static_cast<float>(1.0 / sum);
  const __m512 vinv = _mm512_set1_ps(inv);
  i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, _mm512_mul_ps(_mm512_loadu_ps(out + i), vinv));
  }
  for (; i < n; ++i) out[i] *= inv;
}

void decode_attend(const KvSegmentView* segs, std::size_t n_segs,
                   const float* q_head, std::size_t dh, float scale,
                   const float* bias, const float* keys_override, float* lrow,
                   float* prow, float* ctx, std::size_t key_len) {
  if (keys_override != nullptr) {
    matvec_rows(keys_override, q_head, lrow, 0, key_len, dh);
  } else {
    for (std::size_t s = 0; s < n_segs; ++s) {
      const KvSegmentView& seg = segs[s];
      matvec_rows(seg.keys, q_head, lrow + seg.first, 0, seg.count, dh);
    }
  }

  const __m512 vscale = _mm512_set1_ps(scale);
  std::size_t i = 0;
  if (bias != nullptr) {
    for (; i + 16 <= key_len; i += 16) {
      _mm512_storeu_ps(lrow + i,
                       _mm512_fmadd_ps(_mm512_loadu_ps(lrow + i), vscale,
                                       _mm512_loadu_ps(bias + i)));
    }
    for (; i < key_len; ++i) lrow[i] = lrow[i] * scale + bias[i];
  } else {
    for (; i + 16 <= key_len; i += 16) {
      _mm512_storeu_ps(lrow + i,
                       _mm512_mul_ps(_mm512_loadu_ps(lrow + i), vscale));
    }
    for (; i < key_len; ++i) lrow[i] *= scale;
  }

  const float m = max_value(lrow, key_len);
  const __m512 vm = _mm512_set1_ps(m);
  double sum = 0.0;
  i = 0;
  for (; i + 16 <= key_len; i += 16) {
    const __m512 e = exp512_ps(_mm512_sub_ps(_mm512_loadu_ps(lrow + i), vm));
    _mm512_storeu_ps(prow + i, e);
    sum += hsum_pd(e);
  }
  for (; i < key_len; ++i) {
    const double e = std::exp(static_cast<double>(lrow[i] - m));
    prow[i] = static_cast<float>(e);
    sum += e;
  }

  for (std::size_t j = 0; j < dh; ++j) ctx[j] = 0.0F;
  for (std::size_t s = 0; s < n_segs; ++s) {
    const KvSegmentView& seg = segs[s];
    for (std::size_t r = 0; r < seg.count; ++r) {
      axpy(prow[seg.first + r], seg.values + r * dh, ctx, dh);
    }
  }

  const float inv = static_cast<float>(1.0 / sum);
  const __m512 vinv = _mm512_set1_ps(inv);
  i = 0;
  for (; i + 16 <= key_len; i += 16) {
    _mm512_storeu_ps(prow + i, _mm512_mul_ps(_mm512_loadu_ps(prow + i), vinv));
  }
  for (; i < key_len; ++i) prow[i] *= inv;
  for (std::size_t j = 0; j < dh; ++j) ctx[j] *= inv;
}

}  // namespace kf::cpu::avx512
