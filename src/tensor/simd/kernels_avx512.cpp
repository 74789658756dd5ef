// AVX-512 microkernels (F + BW + VL). This translation unit is the only
// one compiled with -mavx512f -mavx512bw -mavx512vl (see
// src/tensor/CMakeLists.txt); nothing here runs unless the dispatcher
// verified CPUID support, so the rest of the binary stays executable on
// baseline x86-64 (and other ISAs compile the stub at the bottom).
//
// Masked-tail discipline: every kernel processes the remainder (< 16
// elements) with maskz loads and mask stores executing the exact same
// per-element operation as the vector body — no scalar tail loop at all.
// Because a masked lane performs the identical fmadd/add/max/mul the
// body lane would, results are independent of where a loop or tile
// boundary falls, preserving the bitwise-across-threads guarantee.
//
// Cross-target behavior: this target is bitwise identical to AVX2 for
// every fp32 kernel — the elementwise ops and gemm_tn perform the same
// single per-element fmadd/add/max/mul, dot() is the AVX2 lane-blocked
// kernel itself and dot_rows() runs its exact order on zmm (lane_dot.h)
// — so auto-resolution upgrading a host from avx2 to avx512 never
// changes results. Versus
// scalar, the same FMA-contraction tolerance as AVX2 applies. The int8
// ops are bitwise identical to the scalar reference on every input, like
// all targets.

#include "tensor/simd/simd.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "tensor/simd/lane_dot.h"

namespace gcnt {
namespace {

/// Lane mask selecting the first `rem` (<= 16) elements.
inline __mmask16 tail_mask(std::size_t rem) {
  return static_cast<__mmask16>((1u << rem) - 1u);
}

void avx512_axpy(float* y, const float* x, float a, std::size_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512 y0 = _mm512_loadu_ps(y + i);
    const __m512 y1 = _mm512_loadu_ps(y + i + 16);
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i), y0));
    _mm512_storeu_ps(y + i + 16,
                     _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i + 16), y1));
  }
  for (; i + 16 <= n; i += 16) {
    const __m512 y0 = _mm512_loadu_ps(y + i);
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i), y0));
  }
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    const __m512 y0 = _mm512_maskz_loadu_ps(m, y + i);
    const __m512 x0 = _mm512_maskz_loadu_ps(m, x + i);
    _mm512_mask_storeu_ps(y + i, m, _mm512_fmadd_ps(va, x0, y0));
  }
}

void avx512_bias_add(float* y, const float* bias, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_add_ps(_mm512_loadu_ps(y + i),
                                          _mm512_loadu_ps(bias + i)));
  }
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    _mm512_mask_storeu_ps(y + i, m,
                          _mm512_add_ps(_mm512_maskz_loadu_ps(m, y + i),
                                        _mm512_maskz_loadu_ps(m, bias + i)));
  }
}

void avx512_bias_relu(float* y, const float* bias, std::size_t n) {
  const __m512 zero = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v =
        _mm512_add_ps(_mm512_loadu_ps(y + i), _mm512_loadu_ps(bias + i));
    _mm512_storeu_ps(y + i, _mm512_max_ps(v, zero));
  }
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    const __m512 v = _mm512_add_ps(_mm512_maskz_loadu_ps(m, y + i),
                                   _mm512_maskz_loadu_ps(m, bias + i));
    _mm512_mask_storeu_ps(y + i, m, _mm512_max_ps(v, zero));
  }
}

void avx512_relu(float* y, std::size_t n) {
  const __m512 zero = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_max_ps(_mm512_loadu_ps(y + i), zero));
  }
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    _mm512_mask_storeu_ps(
        y + i, m, _mm512_max_ps(_mm512_maskz_loadu_ps(m, y + i), zero));
  }
}

void avx512_scale(float* y, float a, std::size_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_mul_ps(_mm512_loadu_ps(y + i), va));
  }
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    _mm512_mask_storeu_ps(
        y + i, m, _mm512_mul_ps(_mm512_maskz_loadu_ps(m, y + i), va));
  }
}

/// lane_dot.h's register traits: 16 outputs per zmm.
struct Zmm {
  using Reg = __m512;
  static constexpr std::size_t kLanes = 16;
  static Reg zero() { return _mm512_setzero_ps(); }
  static Reg load(const float* p) { return _mm512_loadu_ps(p); }
  static Reg broadcast(float v) { return _mm512_set1_ps(v); }
  static Reg fma(Reg a, Reg b, Reg c) { return _mm512_fmadd_ps(a, b, c); }
  static Reg add(Reg a, Reg b) { return _mm512_add_ps(a, b); }
  /// Stores the first `count` (1..16) lanes.
  static void store(float* p, Reg v, std::size_t count) {
    _mm512_mask_storeu_ps(p, tail_mask(count), v);
  }
};

// ---- GEMM tile (weight gradient and packed no-transpose) -------------
// Register tile: kTnRows output rows x V <= kTnVecs 16-lane column
// vectors (up to 4 x 64), whose accumulators stay in zmm registers across
// the whole k loop. Per p the tile loads its b vectors once and
// broadcasts one alpha * a per row; the zero-skip is a mask — a lane
// whose row term compares equal to zero keeps its accumulator
// (mask3_fmadd), exactly like axpy()'s `continue`. The column tail uses
// masked loads/stores, so a lane runs the same fmadd whether or not it
// sits in the tail. A short tile repeats its last row in the unused row
// slots, which are computed but never stored.

constexpr std::size_t kTnRows = 4;
constexpr std::size_t kTnVecs = 4;

template <std::size_t V>
void avx512_tn_tile(float* c, std::size_t ldc, const float* a,
                    std::size_t lda, const float* b, std::size_t ldb,
                    std::size_t rows, std::size_t k, float alpha,
                    __mmask16 last) {
  const __m512 valpha = _mm512_set1_ps(alpha);
  const __m512 zero = _mm512_setzero_ps();
  std::size_t row[kTnRows];
  __m512 acc[kTnRows][V];
#pragma GCC unroll 16
  for (std::size_t r = 0; r < kTnRows; ++r) {
    row[r] = std::min(r, rows - 1);
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v) {
      acc[r][v] = _mm512_maskz_loadu_ps(v + 1 == V ? last : 0xFFFF,
                                        c + row[r] * ldc + 16 * v);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* ap = a + p * lda;
    const float* bp = b + p * ldb;
    __m512 bv[V];
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v) {
      bv[v] = _mm512_maskz_loadu_ps(v + 1 == V ? last : 0xFFFF, bp + 16 * v);
    }
#pragma GCC unroll 16
    for (std::size_t r = 0; r < kTnRows; ++r) {
      const __m512 av = _mm512_mul_ps(valpha, _mm512_set1_ps(ap[row[r]]));
      const __mmask16 live = _mm512_cmp_ps_mask(av, zero, _CMP_NEQ_UQ);
#pragma GCC unroll 16
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm512_mask3_fmadd_ps(av, bv[v], acc[r][v], live);
      }
    }
  }
  // Unused row slots store into a scratch row, keeping every index
  // constant so the accumulators never leave registers.
  float dead[16 * V];
  float* out[kTnRows];
#pragma GCC unroll 16
  for (std::size_t r = 0; r < kTnRows; ++r) {
    out[r] = r < rows ? c + r * ldc : dead;
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v) {
      _mm512_mask_storeu_ps(out[r] + 16 * v, v + 1 == V ? last : 0xFFFF,
                            acc[r][v]);
    }
  }
}

/// avx512_tn_tile<V> for V = 1..kTnVecs, indexed by V - 1.
constexpr void (*kTnTiles[kTnVecs])(float*, std::size_t, const float*,
                                    std::size_t, const float*, std::size_t,
                                    std::size_t, std::size_t, float,
                                    __mmask16) = {
    avx512_tn_tile<1>, avx512_tn_tile<2>, avx512_tn_tile<3>,
    avx512_tn_tile<4>};

void avx512_gemm_tn(float* c, std::size_t ldc, const float* a,
                    std::size_t lda, const float* b, std::size_t ldb,
                    std::size_t rows, std::size_t cols, std::size_t k,
                    float alpha) {
  for (std::size_t r0 = 0; r0 < rows; r0 += kTnRows) {
    const std::size_t tile_rows = std::min(kTnRows, rows - r0);
    for (std::size_t c0 = 0; c0 < cols; c0 += 16 * kTnVecs) {
      const std::size_t tile_cols = std::min(16 * kTnVecs, cols - c0);
      const std::size_t vecs = (tile_cols + 15) / 16;
      const __mmask16 last = tail_mask(tile_cols - 16 * (vecs - 1));
      kTnTiles[vecs - 1](c + r0 * ldc + c0, ldc, a + r0, lda, b + c0, ldb,
                         tile_rows, k, alpha, last);
    }
  }
}

// ---- int8 quantized tier -------------------------------------------

std::int32_t avx512_dot_u8s8(const std::uint8_t* a, const std::int8_t* b,
                             std::size_t n) {
  const __m512i ones = _mm512_set1_epi16(1);
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i va =
        _mm512_loadu_si512(reinterpret_cast<const void*>(a + i));
    const __m512i vb =
        _mm512_loadu_si512(reinterpret_cast<const void*>(b + i));
    const __m512i pairs = _mm512_maddubs_epi16(va, vb);
    acc = _mm512_add_epi32(acc, _mm512_madd_epi16(pairs, ones));
  }
  if (i < n) {
    // Zero-filled masked byte loads: dead lanes multiply to 0.
    const __mmask64 m = (n - i == 64) ? ~__mmask64{0}
                                      : ((__mmask64{1} << (n - i)) - 1);
    const __m512i va = _mm512_maskz_loadu_epi8(m, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi8(m, b + i);
    const __m512i pairs = _mm512_maddubs_epi16(va, vb);
    acc = _mm512_add_epi32(acc, _mm512_madd_epi16(pairs, ones));
  }
  return _mm512_reduce_add_epi32(acc);
}

void avx512_axpy_dq8(float* y, const std::uint8_t* codes, float a,
                     std::int32_t zp, std::size_t n) {
  const __m512 va = _mm512_set1_ps(a);
  const __m512i vzp = _mm512_set1_epi32(zp);
  std::size_t i = 0;
  // 4x unroll: four independent 128-bit code loads per pass keep the
  // byte->dword widening (a shuffle-port op) pipelined instead of
  // serializing behind one load per iteration. Each lane still computes
  // fma(a, (code - zp), y) exactly like the 16-wide and scalar loops,
  // so results stay bitwise identical at every length.
  for (; i + 64 <= n; i += 64) {
    const __m128i b0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    const __m128i b1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i + 16));
    const __m128i b2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i + 32));
    const __m128i b3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i + 48));
    const __m512 x0 = _mm512_cvtepi32_ps(
        _mm512_sub_epi32(_mm512_cvtepu8_epi32(b0), vzp));
    const __m512 x1 = _mm512_cvtepi32_ps(
        _mm512_sub_epi32(_mm512_cvtepu8_epi32(b1), vzp));
    const __m512 x2 = _mm512_cvtepi32_ps(
        _mm512_sub_epi32(_mm512_cvtepu8_epi32(b2), vzp));
    const __m512 x3 = _mm512_cvtepi32_ps(
        _mm512_sub_epi32(_mm512_cvtepu8_epi32(b3), vzp));
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(va, x0, _mm512_loadu_ps(y + i)));
    _mm512_storeu_ps(y + i + 16,
                     _mm512_fmadd_ps(va, x1, _mm512_loadu_ps(y + i + 16)));
    _mm512_storeu_ps(y + i + 32,
                     _mm512_fmadd_ps(va, x2, _mm512_loadu_ps(y + i + 32)));
    _mm512_storeu_ps(y + i + 48,
                     _mm512_fmadd_ps(va, x3, _mm512_loadu_ps(y + i + 48)));
  }
  for (; i + 16 <= n; i += 16) {
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    const __m512 x = _mm512_cvtepi32_ps(
        _mm512_sub_epi32(_mm512_cvtepu8_epi32(bytes), vzp));
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(va, x, _mm512_loadu_ps(y + i)));
  }
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    const __m128i bytes = _mm_maskz_loadu_epi8(m, codes + i);
    const __m512 x = _mm512_cvtepi32_ps(
        _mm512_sub_epi32(_mm512_cvtepu8_epi32(bytes), vzp));
    const __m512 y0 = _mm512_maskz_loadu_ps(m, y + i);
    _mm512_mask_storeu_ps(y + i, m, _mm512_fmadd_ps(va, x, y0));
  }
}

void avx512_quantize_u8(std::uint8_t* codes, const float* x, float inv_scale,
                        std::int32_t zp, std::size_t n) {
  const __m512 vs = _mm512_set1_ps(inv_scale);
  const __m512 lo = _mm512_set1_ps(-256.0f);
  const __m512 hi = _mm512_set1_ps(256.0f);
  const __m512i vzp = _mm512_set1_epi32(zp);
  const __m512i zero = _mm512_setzero_si512();
  const __m512i v127 = _mm512_set1_epi32(127);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 v = _mm512_mul_ps(_mm512_loadu_ps(x + i), vs);
    v = _mm512_max_ps(v, lo);
    v = _mm512_min_ps(v, hi);
    __m512i q = _mm512_add_epi32(_mm512_cvtps_epi32(v), vzp);
    q = _mm512_min_epi32(_mm512_max_epi32(q, zero), v127);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + i),
                     _mm512_cvtepi32_epi8(q));
  }
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    __m512 v = _mm512_mul_ps(_mm512_maskz_loadu_ps(m, x + i), vs);
    v = _mm512_max_ps(v, lo);
    v = _mm512_min_ps(v, hi);
    __m512i q = _mm512_add_epi32(_mm512_cvtps_epi32(v), vzp);
    q = _mm512_min_epi32(_mm512_max_epi32(q, zero), v127);
    _mm_mask_storeu_epi8(codes + i, m, _mm512_cvtepi32_epi8(q));
  }
}

void avx512_dequantize_u8(float* y, const std::uint8_t* codes, float scale,
                          std::int32_t zp, std::size_t n) {
  const __m512 vs = _mm512_set1_ps(scale);
  const __m512i vzp = _mm512_set1_epi32(zp);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    const __m512 x = _mm512_cvtepi32_ps(
        _mm512_sub_epi32(_mm512_cvtepu8_epi32(bytes), vzp));
    _mm512_storeu_ps(y + i, _mm512_mul_ps(x, vs));
  }
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    const __m128i bytes = _mm_maskz_loadu_epi8(m, codes + i);
    const __m512 x = _mm512_cvtepi32_ps(
        _mm512_sub_epi32(_mm512_cvtepu8_epi32(bytes), vzp));
    _mm512_mask_storeu_ps(y + i, m, _mm512_mul_ps(x, vs));
  }
}

}  // namespace

namespace simd_detail {

const SimdOps kAvx512Ops = {
    "avx512",
    avx512_axpy,
    lane_dot,
    lane_dot_rows<Zmm, 2, 2>,
    avx512_bias_add,
    avx512_bias_relu,
    avx512_relu,
    avx512_scale,
    avx512_gemm_tn,
    avx512_dot_u8s8,
    avx512_axpy_dq8,
    avx512_quantize_u8,
    avx512_dequantize_u8,
};

}  // namespace simd_detail
}  // namespace gcnt

#else  // !(__AVX512F__ && __AVX512BW__ && __AVX512VL__)

namespace gcnt::simd_detail {

const SimdOps kAvx512Ops = {};

}  // namespace gcnt::simd_detail

#endif
