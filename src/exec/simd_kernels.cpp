// Vectorized kernel tiers. See the header for the bit-exactness contract;
// the short version: -ffp-contract=off pins the scalar reference to a fixed
// per-element chain (kKc panels ascending, p ascending, one mul+sub / mul+
// add pair per step, panel partial added to C), and every kernel here —
// vector lanes, scalar tails, bf16 mixed — reproduces exactly that chain.
// No FMA intrinsics anywhere: each multiply and add must round once.
#include "exec/simd_kernels.hpp"

#include <algorithm>
#include <cstring>

#include "exec/gemm.hpp"
#include "util/aligned_alloc.hpp"
#include "util/timer.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define LTNS_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define LTNS_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace ltns::exec {

namespace {

constexpr int kKc = 256;  // MUST match exec::cgemm's K panel (reduction order)

// 4-row and 1-row microkernels over pre-packed split-complex planes:
//   ar/ai: row-major [rows][kc] A panel planes, row stride `as`
//   br/bi: row-major [kc][n_full] B panel planes, row stride `bs`
// Each processes one lane-wide column block and adds the panel partial into
// the interleaved C rows.
using Micro4Fn = void (*)(int kc, const float* ar, const float* ai, int as, const float* br,
                          const float* bi, int bs, cfloat* c, int ldc);
using Micro1Fn = void (*)(int kc, const float* ar, const float* ai, const float* br,
                          const float* bi, int bs, cfloat* c);
// Row-lane kernels for the ragged columns n_full..n, lanes across rows:
//   PackTFn:   one lane-row block's K panel of A (row stride lda) into
//              transposed planes, element (p, r) at ar/ai[p * lanes + r]
//   RowLaneFn: that block against nr ragged columns of the B planes br/bi
//              (row stride bs), adding the panel partial into C
using PackTFn = void (*)(int kc, const cfloat* a, int lda, float* ar, float* ai);
using RowLaneFn = void (*)(int kc, const float* ar, const float* ai, const float* br,
                           const float* bi, int bs, int nr, cfloat* c, int ldc);

// --- x86 tiers --------------------------------------------------------------

#ifdef LTNS_SIMD_X86

__attribute__((target("avx2"))) void add_store_avx2(__m256 cr, __m256 ci, cfloat* crow) {
  // Interleave (re, im) lanes back into complex order, then C += partial —
  // component-wise adds, exactly the scalar `c += cfloat(cr, ci)`.
  const __m256 t0 = _mm256_unpacklo_ps(cr, ci);
  const __m256 t1 = _mm256_unpackhi_ps(cr, ci);
  const __m256 lo = _mm256_permute2f128_ps(t0, t1, 0x20);
  const __m256 hi = _mm256_permute2f128_ps(t0, t1, 0x31);
  float* cp = reinterpret_cast<float*>(crow);
  _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), lo));
  _mm256_storeu_ps(cp + 8, _mm256_add_ps(_mm256_loadu_ps(cp + 8), hi));
}

__attribute__((target("avx2"))) void micro4_avx2(int kc, const float* ar, const float* ai,
                                                 int as, const float* br, const float* bi,
                                                 int bs, cfloat* c, int ldc) {
  __m256 cr[4], ci[4];
  for (int r = 0; r < 4; ++r) cr[r] = ci[r] = _mm256_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const __m256 brv = _mm256_loadu_ps(br + size_t(p) * bs);
    const __m256 biv = _mm256_loadu_ps(bi + size_t(p) * bs);
    for (int r = 0; r < 4; ++r) {
      const __m256 arv = _mm256_broadcast_ss(ar + size_t(r) * as + p);
      const __m256 aiv = _mm256_broadcast_ss(ai + size_t(r) * as + p);
      cr[r] = _mm256_add_ps(cr[r],
                            _mm256_sub_ps(_mm256_mul_ps(arv, brv), _mm256_mul_ps(aiv, biv)));
      ci[r] = _mm256_add_ps(ci[r],
                            _mm256_add_ps(_mm256_mul_ps(arv, biv), _mm256_mul_ps(aiv, brv)));
    }
  }
  for (int r = 0; r < 4; ++r) add_store_avx2(cr[r], ci[r], c + size_t(r) * ldc);
}

__attribute__((target("avx2"))) void micro1_avx2(int kc, const float* ar, const float* ai,
                                                 const float* br, const float* bi, int bs,
                                                 cfloat* c) {
  __m256 cr = _mm256_setzero_ps(), ci = _mm256_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const __m256 brv = _mm256_loadu_ps(br + size_t(p) * bs);
    const __m256 biv = _mm256_loadu_ps(bi + size_t(p) * bs);
    const __m256 arv = _mm256_broadcast_ss(ar + p);
    const __m256 aiv = _mm256_broadcast_ss(ai + p);
    cr = _mm256_add_ps(cr, _mm256_sub_ps(_mm256_mul_ps(arv, brv), _mm256_mul_ps(aiv, biv)));
    ci = _mm256_add_ps(ci, _mm256_add_ps(_mm256_mul_ps(arv, biv), _mm256_mul_ps(aiv, brv)));
  }
  add_store_avx2(cr, ci, c);
}

// 8x8 float transpose: v[i][q] -> v[q][i].
__attribute__((target("avx2"), always_inline)) inline void transpose8_avx2(__m256* v) {
  __m256 t[8], u[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(v[i], v[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(v[i], v[i + 1]);
  }
  for (int i = 0; i < 8; i += 4) {  // u[i + q], 128-bit lane L: column 4L + q, rows i..i+3
    u[i] = _mm256_shuffle_ps(t[i], t[i + 2], 0x44);
    u[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], 0xEE);
    u[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0x44);
    u[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0xEE);
  }
  for (int q = 0; q < 4; ++q) {
    v[q] = _mm256_permute2f128_ps(u[q], u[4 + q], 0x20);
    v[4 + q] = _mm256_permute2f128_ps(u[q], u[4 + q], 0x31);
  }
}

// 8 rows x 4 complex per load, transposed into [p][8] planes.
__attribute__((target("avx2"))) void pack_t_avx2(int kc, const cfloat* a, int lda, float* ar,
                                                  float* ai) {
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (int p0 = 0; p0 < kc; p0 += 4) {
    const int np = std::min(4, kc - p0);
    const __m256i mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(2 * np), iota);
    __m256 v[8];
    for (int r = 0; r < 8; ++r)
      v[r] = _mm256_maskload_ps(reinterpret_cast<const float*>(a + size_t(r) * lda + p0), mask);
    transpose8_avx2(v);
    for (int p = 0; p < np; ++p) {
      _mm256_storeu_ps(ar + size_t(p0 + p) * 8, v[2 * p]);
      _mm256_storeu_ps(ai + size_t(p0 + p) * 8, v[2 * p + 1]);
    }
  }
}

// Row-lane kernel over one 8-row block: the nr < 8 ragged columns run in
// one group per set bit of nr (4, 2, 1 columns). v[2j] / v[2j+1] are a
// group's column-j re / im accumulators, transposed back into C rows.
template <int NJ = 4>
__attribute__((target("avx2"))) void rowlane_avx2(int kc, const float* ar, const float* ai,
                                                  const float* br, const float* bi, int bs,
                                                  int nr, cfloat* c, int ldc) {
  if (nr & NJ) {
    const int j0 = nr & ~(2 * NJ - 1);
    __m256 v[8];
    for (int j = 0; j < 8; ++j) v[j] = _mm256_setzero_ps();
    for (int p = 0; p < kc; ++p) {
      const __m256 arv = _mm256_loadu_ps(ar + size_t(p) * 8);
      const __m256 aiv = _mm256_loadu_ps(ai + size_t(p) * 8);
      for (int j = 0; j < NJ; ++j) {
        const __m256 brv = _mm256_broadcast_ss(br + size_t(p) * bs + j0 + j);
        const __m256 biv = _mm256_broadcast_ss(bi + size_t(p) * bs + j0 + j);
        v[2 * j] = _mm256_add_ps(
            v[2 * j], _mm256_sub_ps(_mm256_mul_ps(arv, brv), _mm256_mul_ps(aiv, biv)));
        v[2 * j + 1] = _mm256_add_ps(
            v[2 * j + 1], _mm256_add_ps(_mm256_mul_ps(arv, biv), _mm256_mul_ps(aiv, brv)));
      }
    }
    transpose8_avx2(v);
    const __m256i mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(2 * NJ),
                                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    // All loads before any store: a masked load behind an overlapping masked
    // store cannot be forwarded and stalls until the store retires.
    float* cp = reinterpret_cast<float*>(c + j0);
    for (int r = 0; r < 8; ++r)
      v[r] = _mm256_add_ps(_mm256_maskload_ps(cp + size_t(r) * 2 * ldc, mask), v[r]);
    for (int r = 0; r < 8; ++r) _mm256_maskstore_ps(cp + size_t(r) * 2 * ldc, mask, v[r]);
  }
  if constexpr (NJ > 1) rowlane_avx2<NJ / 2>(kc, ar, ai, br, bi, bs, nr, c, ldc);
}

__attribute__((target("avx512f"))) void add_store_avx512(__m512 cr, __m512 ci, cfloat* crow) {
  const __m512i idx_lo =
      _mm512_set_epi32(23, 7, 22, 6, 21, 5, 20, 4, 19, 3, 18, 2, 17, 1, 16, 0);
  const __m512i idx_hi =
      _mm512_set_epi32(31, 15, 30, 14, 29, 13, 28, 12, 27, 11, 26, 10, 25, 9, 24, 8);
  const __m512 lo = _mm512_permutex2var_ps(cr, idx_lo, ci);
  const __m512 hi = _mm512_permutex2var_ps(cr, idx_hi, ci);
  float* cp = reinterpret_cast<float*>(crow);
  _mm512_storeu_ps(cp, _mm512_add_ps(_mm512_loadu_ps(cp), lo));
  _mm512_storeu_ps(cp + 16, _mm512_add_ps(_mm512_loadu_ps(cp + 16), hi));
}

__attribute__((target("avx512f"))) void micro4_avx512(int kc, const float* ar, const float* ai,
                                                      int as, const float* br, const float* bi,
                                                      int bs, cfloat* c, int ldc) {
  __m512 cr[4], ci[4];
  for (int r = 0; r < 4; ++r) cr[r] = ci[r] = _mm512_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const __m512 brv = _mm512_loadu_ps(br + size_t(p) * bs);
    const __m512 biv = _mm512_loadu_ps(bi + size_t(p) * bs);
    for (int r = 0; r < 4; ++r) {
      const __m512 arv = _mm512_set1_ps(ar[size_t(r) * as + p]);
      const __m512 aiv = _mm512_set1_ps(ai[size_t(r) * as + p]);
      cr[r] = _mm512_add_ps(cr[r],
                            _mm512_sub_ps(_mm512_mul_ps(arv, brv), _mm512_mul_ps(aiv, biv)));
      ci[r] = _mm512_add_ps(ci[r],
                            _mm512_add_ps(_mm512_mul_ps(arv, biv), _mm512_mul_ps(aiv, brv)));
    }
  }
  for (int r = 0; r < 4; ++r) add_store_avx512(cr[r], ci[r], c + size_t(r) * ldc);
}

__attribute__((target("avx512f"))) void micro1_avx512(int kc, const float* ar, const float* ai,
                                                      const float* br, const float* bi, int bs,
                                                      cfloat* c) {
  __m512 cr = _mm512_setzero_ps(), ci = _mm512_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const __m512 brv = _mm512_loadu_ps(br + size_t(p) * bs);
    const __m512 biv = _mm512_loadu_ps(bi + size_t(p) * bs);
    const __m512 arv = _mm512_set1_ps(ar[p]);
    const __m512 aiv = _mm512_set1_ps(ai[p]);
    cr = _mm512_add_ps(cr, _mm512_sub_ps(_mm512_mul_ps(arv, brv), _mm512_mul_ps(aiv, biv)));
    ci = _mm512_add_ps(ci, _mm512_add_ps(_mm512_mul_ps(arv, biv), _mm512_mul_ps(aiv, brv)));
  }
  add_store_avx512(cr, ci, c);
}

// 16x16 float transpose: v[i][q] -> v[q][i]. The zero-masked forms with a
// full mask compile to the plain instructions; the unmasked intrinsics trip
// GCC 12's -Wuninitialized on their _mm512_undefined_*() operand.
__attribute__((target("avx512f"), always_inline)) inline void transpose16_avx512(__m512* v) {
  const __mmask16 all = 0xFFFF;
  __m512 t[16];
  for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_maskz_unpacklo_ps(all, v[i], v[i + 1]);
    t[i + 1] = _mm512_maskz_unpackhi_ps(all, v[i], v[i + 1]);
  }
  for (int i = 0; i < 16; i += 4)  // v[i + q], 128-bit lane L: column 4L + q, rows i..i+3
    for (int h = 0; h < 2; ++h) {
      const __m512d x = _mm512_castps_pd(t[i + h]), y = _mm512_castps_pd(t[i + h + 2]);
      v[i + 2 * h] = _mm512_castpd_ps(_mm512_maskz_unpacklo_pd(0xFF, x, y));
      v[i + 2 * h + 1] = _mm512_castpd_ps(_mm512_maskz_unpackhi_pd(0xFF, x, y));
    }
  for (int q = 0; q < 4; ++q) {  // 4x4 transpose of 128-bit lanes
    const __m512 lo01 = _mm512_maskz_shuffle_f32x4(all, v[q], v[4 + q], 0x44);
    const __m512 hi01 = _mm512_maskz_shuffle_f32x4(all, v[q], v[4 + q], 0xEE);
    const __m512 lo23 = _mm512_maskz_shuffle_f32x4(all, v[8 + q], v[12 + q], 0x44);
    const __m512 hi23 = _mm512_maskz_shuffle_f32x4(all, v[8 + q], v[12 + q], 0xEE);
    t[q] = _mm512_maskz_shuffle_f32x4(all, lo01, lo23, 0x88);
    t[4 + q] = _mm512_maskz_shuffle_f32x4(all, lo01, lo23, 0xDD);
    t[8 + q] = _mm512_maskz_shuffle_f32x4(all, hi01, hi23, 0x88);
    t[12 + q] = _mm512_maskz_shuffle_f32x4(all, hi01, hi23, 0xDD);
  }
  for (int i = 0; i < 16; ++i) v[i] = t[i];
}

// 16 rows x 8 complex per load, transposed into [p][16] planes.
__attribute__((target("avx512f"))) void pack_t_avx512(int kc, const cfloat* a, int lda, float* ar,
                                                      float* ai) {
  for (int p0 = 0; p0 < kc; p0 += 8) {
    const int np = std::min(8, kc - p0);
    const __mmask16 mask = __mmask16((1u << (2 * np)) - 1);
    __m512 v[16];
    for (int r = 0; r < 16; ++r) v[r] = _mm512_maskz_loadu_ps(mask, a + size_t(r) * lda + p0);
    transpose16_avx512(v);
    for (int p = 0; p < np; ++p) {
      _mm512_storeu_ps(ar + size_t(p0 + p) * 16, v[2 * p]);
      _mm512_storeu_ps(ai + size_t(p0 + p) * 16, v[2 * p + 1]);
    }
  }
}

// Row-lane kernel over one 16-row block: groups of 8, 4, 2, 1 columns
// (see rowlane_avx2).
template <int NJ = 8>
__attribute__((target("avx512f"))) void rowlane_avx512(int kc, const float* ar, const float* ai,
                                                       const float* br, const float* bi, int bs,
                                                       int nr, cfloat* c, int ldc) {
  if (nr & NJ) {
    const int j0 = nr & ~(2 * NJ - 1);
    __m512 v[16];
    for (int j = 0; j < 16; ++j) v[j] = _mm512_setzero_ps();
    for (int p = 0; p < kc; ++p) {
      const __m512 arv = _mm512_loadu_ps(ar + size_t(p) * 16);
      const __m512 aiv = _mm512_loadu_ps(ai + size_t(p) * 16);
      for (int j = 0; j < NJ; ++j) {
        const __m512 brv = _mm512_set1_ps(br[size_t(p) * bs + j0 + j]);
        const __m512 biv = _mm512_set1_ps(bi[size_t(p) * bs + j0 + j]);
        v[2 * j] = _mm512_add_ps(
            v[2 * j], _mm512_sub_ps(_mm512_mul_ps(arv, brv), _mm512_mul_ps(aiv, biv)));
        v[2 * j + 1] = _mm512_add_ps(
            v[2 * j + 1], _mm512_add_ps(_mm512_mul_ps(arv, biv), _mm512_mul_ps(aiv, brv)));
      }
    }
    transpose16_avx512(v);
    const __mmask16 mask = __mmask16((1u << (2 * NJ)) - 1);
    float* cp = reinterpret_cast<float*>(c + j0);
    for (int r = 0; r < 16; ++r)
      v[r] = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, cp + size_t(r) * 2 * ldc), v[r]);
    for (int r = 0; r < 16; ++r) _mm512_mask_storeu_ps(cp + size_t(r) * 2 * ldc, mask, v[r]);
  }
  if constexpr (NJ > 1) rowlane_avx512<NJ / 2>(kc, ar, ai, br, bi, bs, nr, c, ldc);
}

__attribute__((target("avx2"))) void gather_avx2(const uint32_t* map, const cfloat* in,
                                                 cfloat* out, size_t n) {
  const long long* base = reinterpret_cast<const long long*>(in);
  size_t o = 0;
  for (; o + 4 <= n; o += 4) {
    const __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(map + o));
    const __m256i v = _mm256_i32gather_epi64(base, idx, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + o), v);
  }
  for (; o < n; ++o) out[o] = in[map[o]];
}

__attribute__((target("avx512f"))) void gather_avx512(const uint32_t* map, const cfloat* in,
                                                      cfloat* out, size_t n) {
  size_t o = 0;
  for (; o + 8 <= n; o += 8) {
    const __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(map + o));
    const __m512i v = _mm512_i32gather_epi64(idx, in, 8);
    _mm512_storeu_si512(out + o, v);
  }
  for (; o < n; ++o) out[o] = in[map[o]];
}

#endif  // LTNS_SIMD_X86

// --- NEON tier --------------------------------------------------------------

#ifdef LTNS_SIMD_NEON

void add_store_neon(float32x4_t cr, float32x4_t ci, cfloat* crow) {
  float* cp = reinterpret_cast<float*>(crow);
  float32x4x2_t cv = vld2q_f32(cp);  // deinterleave: val[0] = re, val[1] = im
  cv.val[0] = vaddq_f32(cv.val[0], cr);
  cv.val[1] = vaddq_f32(cv.val[1], ci);
  vst2q_f32(cp, cv);
}

void micro4_neon(int kc, const float* ar, const float* ai, int as, const float* br,
                 const float* bi, int bs, cfloat* c, int ldc) {
  float32x4_t cr[4], ci[4];
  for (int r = 0; r < 4; ++r) cr[r] = ci[r] = vdupq_n_f32(0.f);
  for (int p = 0; p < kc; ++p) {
    const float32x4_t brv = vld1q_f32(br + size_t(p) * bs);
    const float32x4_t biv = vld1q_f32(bi + size_t(p) * bs);
    for (int r = 0; r < 4; ++r) {
      const float32x4_t arv = vdupq_n_f32(ar[size_t(r) * as + p]);
      const float32x4_t aiv = vdupq_n_f32(ai[size_t(r) * as + p]);
      cr[r] = vaddq_f32(cr[r], vsubq_f32(vmulq_f32(arv, brv), vmulq_f32(aiv, biv)));
      ci[r] = vaddq_f32(ci[r], vaddq_f32(vmulq_f32(arv, biv), vmulq_f32(aiv, brv)));
    }
  }
  for (int r = 0; r < 4; ++r) add_store_neon(cr[r], ci[r], c + size_t(r) * ldc);
}

void micro1_neon(int kc, const float* ar, const float* ai, const float* br, const float* bi,
                 int bs, cfloat* c) {
  float32x4_t cr = vdupq_n_f32(0.f), ci = vdupq_n_f32(0.f);
  for (int p = 0; p < kc; ++p) {
    const float32x4_t brv = vld1q_f32(br + size_t(p) * bs);
    const float32x4_t biv = vld1q_f32(bi + size_t(p) * bs);
    const float32x4_t arv = vdupq_n_f32(ar[p]);
    const float32x4_t aiv = vdupq_n_f32(ai[p]);
    cr = vaddq_f32(cr, vsubq_f32(vmulq_f32(arv, brv), vmulq_f32(aiv, biv)));
    ci = vaddq_f32(ci, vaddq_f32(vmulq_f32(arv, biv), vmulq_f32(aiv, brv)));
  }
  add_store_neon(cr, ci, c);
}

#endif  // LTNS_SIMD_NEON

struct TierKernels {
  size_t lanes = 0;
  Micro4Fn micro4 = nullptr;
  Micro1Fn micro1 = nullptr;
  PackTFn pack_t = nullptr;  // both null: ragged columns stay on the scalar chain
  RowLaneFn rowlane = nullptr;
};

TierKernels tier_kernels(IsaTier tier) {
  switch (tier) {
#ifdef LTNS_SIMD_X86
    case IsaTier::kAvx2:
      return {8, micro4_avx2, micro1_avx2, pack_t_avx2, rowlane_avx2<>};
    case IsaTier::kAvx512:
      return {16, micro4_avx512, micro1_avx512, pack_t_avx512, rowlane_avx512<>};
#endif
#ifdef LTNS_SIMD_NEON
    case IsaTier::kNeon:
      return {4, micro4_neon, micro1_neon};
#endif
    default:
      return {};  // portable: no vector microkernel
  }
}

// Scalar per-element chain over one K panel — identical to micro_4x4's /
// micro_edge's per-element semantics under -ffp-contract=off. Covers lane
// tails and the whole mixed-precision portable tier (`round` = bf16).
template <bool Round>
void scalar_panel(int i0, int i1, int j0, int j1, int kc, const cfloat* a, int lda,
                  const cfloat* b, int ldb, cfloat* c, int ldc) {
  for (int i = i0; i < i1; ++i)
    for (int j = j0; j < j1; ++j) {
      float cr = 0, ci = 0;
      for (int p = 0; p < kc; ++p) {
        const cfloat av = a[size_t(i) * lda + p];
        const cfloat bv = b[size_t(p) * ldb + j];
        float ar = av.real(), ai = av.imag();
        float br = bv.real(), bi = bv.imag();
        if (Round) {
          ar = bf16_round(ar);
          ai = bf16_round(ai);
          br = bf16_round(br);
          bi = bf16_round(bi);
        }
        cr += ar * br - ai * bi;
        ci += ar * bi + ai * br;
      }
      c[size_t(i) * ldc + j] += cfloat(cr, ci);
    }
}

// Reusable aligned float scratch for the packed split-complex planes.
struct PlaneBuf {
  float* p = nullptr;
  size_t cap = 0;
  float* get(size_t need) {
    if (need > cap) {
      release();
      util::AlignedAllocator<float, exec::kTensorAlignment> a;
      p = a.allocate(need);
      cap = need;
    }
    return p;
  }
  void release() {
    if (p != nullptr) {
      util::AlignedAllocator<float, exec::kTensorAlignment> a;
      a.deallocate(p, cap);
    }
    p = nullptr;
    cap = 0;
  }
  ~PlaneBuf() { release(); }
};

// One row chunk through the vector tier: pack the panel's A/B values into
// split-complex planes (rounding through bf16 in mixed mode — packing is
// where operand precision is applied, once per value), run the lane-wide
// microkernels over full column blocks and the row-lane kernel over the
// ragged columns of full lane-row blocks, and finish the rows below a
// lane block with the scalar chain.
void simd_rows(const TierKernels& tk, Precision prec, int m0, int m1, int n, int k,
               const cfloat* a, const cfloat* b, cfloat* c, SimdPackStats* ps) {
  const bool round = prec == Precision::kBf16;
  for (int i = m0; i < m1; ++i) std::memset(c + size_t(i) * n, 0, size_t(n) * sizeof(cfloat));
  const int lanes = int(tk.lanes);
  const int n_full = n - n % lanes;
  const int nr = n - n_full;
  const int mc = m1 - m0;
  const int mt = nr > 0 && tk.rowlane != nullptr ? mc - mc % lanes : 0;  // row-lane rows
  PlaneBuf buf;
  for (int kp = 0; kp < k; kp += kKc) {
    const int kc = std::min(kKc, k - kp);
    // Plane layout: [ B re | B im | A re | A im | A^T re | A^T im ]: B's
    // first nb columns for both kernels, A row-major for the full column
    // blocks and A transposed, one [kc][lanes] block per lane of rows, for
    // the row-lane kernel.
    const int nb = mt > 0 ? n : n_full;
    const size_t bplane = size_t(kc) * size_t(nb);
    const size_t aplane = n_full > 0 ? size_t(mc) * size_t(kc) : 0;
    const size_t tplane = size_t(mt) * size_t(kc);
    if (bplane > 0) {
      float* br = buf.get(2 * (bplane + aplane + tplane));
      float* bi = br + bplane;
      float* ar = bi + bplane;
      float* ai = ar + aplane;
      float* tr = ai + aplane;
      float* ti = tr + tplane;
      Timer t;
      for (int p = 0; p < kc; ++p) {
        const cfloat* brow = b + size_t(kp + p) * n;
        float* dr = br + size_t(p) * nb;
        float* di = bi + size_t(p) * nb;
        for (int j = 0; j < nb; ++j) {
          dr[j] = round ? bf16_round(brow[j].real()) : brow[j].real();
          di[j] = round ? bf16_round(brow[j].imag()) : brow[j].imag();
        }
      }
      for (int i = 0; aplane > 0 && i < mc; ++i) {
        const cfloat* arow = a + size_t(m0 + i) * k + kp;
        float* dr = ar + size_t(i) * kc;
        float* di = ai + size_t(i) * kc;
        for (int p = 0; p < kc; ++p) {
          dr[p] = round ? bf16_round(arow[p].real()) : arow[p].real();
          di[p] = round ? bf16_round(arow[p].imag()) : arow[p].imag();
        }
      }
      for (int i = 0; i < mt; i += lanes)
        tk.pack_t(kc, a + size_t(m0 + i) * k + kp, k, tr + size_t(i) * kc, ti + size_t(i) * kc);
      for (size_t e = 0; round && e < 2 * tplane; ++e) tr[e] = bf16_round(tr[e]);
      if (ps != nullptr) {
        ps->ns += t.seconds() * 1e9;
        ps->bytes += double(2 * (bplane + aplane + tplane)) * sizeof(float);
        ps->packs += 1;
      }
      for (int jb = 0; jb < n_full; jb += lanes) {
        int i = 0;
        for (; i + 4 <= mc; i += 4)
          tk.micro4(kc, ar + size_t(i) * kc, ai + size_t(i) * kc, kc, br + jb, bi + jb, nb,
                    c + size_t(m0 + i) * n + jb, n);
        for (; i < mc; ++i)
          tk.micro1(kc, ar + size_t(i) * kc, ai + size_t(i) * kc, br + jb, bi + jb, nb,
                    c + size_t(m0 + i) * n + jb);
      }
      for (int i = 0; i < mt; i += lanes)
        tk.rowlane(kc, tr + size_t(i) * kc, ti + size_t(i) * kc, br + n_full, bi + n_full, nb, nr,
                   c + size_t(m0 + i) * n + n_full, n);
    }
    if (nr > 0 && mt < mc) {
      if (round)
        scalar_panel<true>(m0 + mt, m1, n_full, n, kc, a + kp, k, b + size_t(kp) * n, n, c, n);
      else
        scalar_panel<false>(m0 + mt, m1, n_full, n, kc, a + kp, k, b + size_t(kp) * n, n, c, n);
    }
  }
}

// Portable mixed-precision rows: the scalar chain with bf16-rounded
// operands — the reference every vector mixed tier must match bitwise.
void mixed_rows_portable(int m0, int m1, int n, int k, const cfloat* a, const cfloat* b,
                         cfloat* c) {
  for (int i = m0; i < m1; ++i) std::memset(c + size_t(i) * n, 0, size_t(n) * sizeof(cfloat));
  for (int kp = 0; kp < k; kp += kKc) {
    const int kc = std::min(kKc, k - kp);
    scalar_panel<true>(m0, m1, 0, n, kc, a + kp, k, b + size_t(kp) * n, n, c, n);
  }
}

}  // namespace

const char* isa_name(IsaTier t) {
  switch (t) {
    case IsaTier::kAvx2:
      return "avx2";
    case IsaTier::kAvx512:
      return "avx512";
    case IsaTier::kNeon:
      return "neon";
    default:
      return "portable";
  }
}

size_t isa_lanes(IsaTier t) {
  const size_t lanes = tier_kernels(t).lanes;
  return lanes != 0 ? lanes : 4;  // portable: the scalar 4x4 tile width
}

std::vector<IsaTier> compiled_isa_tiers() {
  std::vector<IsaTier> tiers{IsaTier::kPortable};
#ifdef LTNS_SIMD_X86
  tiers.push_back(IsaTier::kAvx2);
  tiers.push_back(IsaTier::kAvx512);
#endif
#ifdef LTNS_SIMD_NEON
  tiers.push_back(IsaTier::kNeon);
#endif
  return tiers;
}

const char* precision_name(Precision p) {
  return p == Precision::kBf16 ? "bf16" : "fp32";
}

void cgemm_simd(IsaTier tier, Precision prec, int m, int n, int k, const cfloat* a,
                const cfloat* b, cfloat* c, ThreadPool* pool, SimdPackStats* pack) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::memset(c, 0, size_t(m) * n * sizeof(cfloat));
    return;
  }
  const TierKernels tk = tier_kernels(tier);
  // Same parallel split and threshold as exec::cgemm; every element's chain
  // is row-local, so the chunking is bitwise-free either way.
  const double work = double(m) * n * k;
  const bool parallel = pool != nullptr && pool->size() > 1 && work > 1 << 16;
  if (tk.micro4 == nullptr) {  // portable (or a tier not compiled for this arch)
    if (prec == Precision::kFp32) {
      cgemm(m, n, k, a, b, c, pool);
    } else if (parallel) {
      pool->parallel_for(size_t(m), [&](int, size_t b0, size_t e0) {
        mixed_rows_portable(int(b0), int(e0), n, k, a, b, c);
      });
    } else {
      mixed_rows_portable(0, m, n, k, a, b, c);
    }
    return;
  }
  if (parallel) {
    std::vector<SimdPackStats> acc(size_t(pool->size()));
    pool->parallel_for(size_t(m), [&](int w, size_t b0, size_t e0) {
      simd_rows(tk, prec, int(b0), int(e0), n, k, a, b, c, &acc[size_t(w)]);
    });
    if (pack != nullptr)
      for (const auto& x : acc) {
        pack->bytes += x.bytes;
        pack->ns += x.ns;
        pack->packs += x.packs;
      }
  } else {
    simd_rows(tk, prec, 0, m, n, k, a, b, c, pack);
  }
}

void permute_apply_simd(IsaTier tier, const PermuteMap& map, const cfloat* in, cfloat* out) {
  const size_t block = map.block_elems();
  const uint32_t* mp = map.map_data();
  const size_t nmap = map.map_entries();
  if (block == 1) {
    // Element-granular map: hardware gather where the tier has one.
#ifdef LTNS_SIMD_X86
    if (tier == IsaTier::kAvx512) {
      gather_avx512(mp, in, out, nmap);
      return;
    }
    if (tier == IsaTier::kAvx2) {
      gather_avx2(mp, in, out, nmap);
      return;
    }
#endif
    (void)tier;
    for (size_t o = 0; o < nmap; ++o) out[o] = in[mp[o]];
    return;
  }
  // Blocked copies: fixed-size copies compile to straight vector moves; the
  // generic memcpy already saturates bandwidth for larger blocks.
  if (block == 2) {
    for (size_t o = 0; o < nmap; ++o) std::memcpy(out + o * 2, in + mp[o], 2 * sizeof(cfloat));
  } else if (block == 4) {
    for (size_t o = 0; o < nmap; ++o) std::memcpy(out + o * 4, in + mp[o], 4 * sizeof(cfloat));
  } else {
    for (size_t o = 0; o < nmap; ++o)
      std::memcpy(out + o * block, in + mp[o], block * sizeof(cfloat));
  }
}

}  // namespace ltns::exec
