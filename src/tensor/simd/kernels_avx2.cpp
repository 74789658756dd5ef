// AVX2 + FMA microkernels. This translation unit is the only one
// compiled with -mavx2 -mfma (see src/tensor/CMakeLists.txt); nothing
// here runs unless the dispatcher verified CPUID support, so the rest of
// the binary stays executable on baseline x86-64 (and other ISAs compile
// the stub at the bottom).
//
// Lane discipline: the elementwise ops (axpy, gemm_tn, bias epilogues,
// relu, scale) map vector lanes one-to-one onto output elements — lane i
// only ever reads/writes element i — so they are bitwise deterministic
// for any thread count, and differ from the scalar target
// only by FMA's single rounding. dot()/dot_rows() are the one
// reassociating kernel: four 8-lane accumulators reduced in a fixed tree
// (lane_dot.h, shared with avx512), documented as tolerance-only across
// targets.

#include "tensor/simd/simd.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/simd/lane_dot.h"

namespace gcnt {
// Scalar tails use std::fmaf so an element gets the same single-rounded
// contraction whether a loop boundary lands it in a vector lane or in
// the tail.
namespace {

void avx2_axpy(float* y, const float* x, float a, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 y0 = _mm256_loadu_ps(y + i);
    const __m256 y1 = _mm256_loadu_ps(y + i + 8);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), y0));
    _mm256_storeu_ps(y + i + 8,
                     _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i + 8), y1));
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 y0 = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), y0));
  }
  for (; i < n; ++i) y[i] = std::fmaf(a, x[i], y[i]);
}

void avx2_bias_add(float* y, const float* bias, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(bias + i)));
  }
  for (; i < n; ++i) y[i] += bias[i];
}

void avx2_bias_relu(float* y, const float* bias, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v =
        _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(bias + i));
    _mm256_storeu_ps(y + i, _mm256_max_ps(v, zero));
  }
  for (; i < n; ++i) {
    const float v = y[i] + bias[i];
    y[i] = v > 0.0f ? v : 0.0f;
  }
}

void avx2_relu(float* y, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(y + i), zero));
  }
  for (; i < n; ++i) y[i] = y[i] > 0.0f ? y[i] : 0.0f;
}

void avx2_scale(float* y, float a, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), va));
  }
  for (; i < n; ++i) y[i] *= a;
}

/// lane_dot.h's register traits: 8 outputs per ymm.
struct Ymm {
  using Reg = __m256;
  static constexpr std::size_t kLanes = 8;
  static Reg zero() { return _mm256_setzero_ps(); }
  static Reg load(const float* p) { return _mm256_loadu_ps(p); }
  static Reg broadcast(float v) { return _mm256_set1_ps(v); }
  static Reg fma(Reg a, Reg b, Reg c) { return _mm256_fmadd_ps(a, b, c); }
  static Reg add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
  /// Stores the first `count` (1..8) lanes.
  static void store(float* p, Reg v, std::size_t count) {
    if (count == kLanes) {
      _mm256_storeu_ps(p, v);
      return;
    }
    const __m256i mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(count)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    _mm256_maskstore_ps(p, mask, v);
  }
};

// ---- GEMM tile (weight gradient and packed no-transpose) -------------
// Register tile: kTnRows output rows x V <= kTnVecs 8-lane column
// vectors (up to 4 x 16), whose accumulators stay in ymm registers across
// the whole k loop. Per p the four row terms alpha * a are formed and
// compared with zero in one xmm: a p whose four terms all compare equal
// to zero is skipped outright, a p whose four terms are all live runs
// plain fmadds, and a mixed p blends — a lane whose row term compares
// equal to zero keeps its old accumulator, exactly like axpy()'s
// `continue`. The column tail uses maskload/maskstore, so a tail lane
// runs the same fmadd as a body lane (axpy's scalar tail is std::fmaf —
// the same single rounding). A short tile repeats its last row in the
// unused row slots, which are computed but never stored.

constexpr std::size_t kTnRows = 4;
constexpr std::size_t kTnVecs = 2;

/// Full: rows == kTnRows, so a p's four a values are one 16-byte load.
template <std::size_t V, bool Full>
void avx2_tn_tile(float* c, std::size_t ldc, const float* a, std::size_t lda,
                  const float* b, std::size_t ldb, std::size_t rows,
                  std::size_t k, float alpha, int last_lanes) {
  const __m256i last =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(last_lanes),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m128 valpha = _mm_set1_ps(alpha);
  std::size_t row[kTnRows];
  __m256 acc[kTnRows][V];
#pragma GCC unroll 16
  for (std::size_t r = 0; r < kTnRows; ++r) {
    row[r] = std::min(r, rows - 1);
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v) {
      const float* src = c + row[r] * ldc + 8 * v;
      acc[r][v] = v + 1 == V ? _mm256_maskload_ps(src, last)
                             : _mm256_loadu_ps(src);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* ap = a + p * lda;
    const __m128 terms = _mm_mul_ps(
        valpha, Full ? _mm_loadu_ps(ap)
                     : _mm_setr_ps(ap[row[0]], ap[row[1]], ap[row[2]],
                                   ap[row[3]]));
    const __m128 live = _mm_cmp_ps(terms, _mm_setzero_ps(), _CMP_NEQ_UQ);
    const int live_rows = _mm_movemask_ps(live);
    if (live_rows == 0) continue;
    const float* bp = b + p * ldb;
    __m256 bv[V];
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v) {
      bv[v] = v + 1 == V ? _mm256_maskload_ps(bp + 8 * v, last)
                         : _mm256_loadu_ps(bp + 8 * v);
    }
    // Row terms and masks are broadcast from the stack one row at a time
    // (load-port broadcasts), which keeps every accumulator in a register.
    alignas(16) float term[kTnRows];
    _mm_store_ps(term, terms);
    if (live_rows == 0xF) {
#pragma GCC unroll 16
      for (std::size_t r = 0; r < kTnRows; ++r) {
        const __m256 av = _mm256_broadcast_ss(term + r);
#pragma GCC unroll 16
        for (std::size_t v = 0; v < V; ++v) {
          acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
        }
      }
    } else {
      alignas(16) float keep[kTnRows];
      _mm_store_ps(keep, live);
#pragma GCC unroll 16
      for (std::size_t r = 0; r < kTnRows; ++r) {
        const __m256 av = _mm256_broadcast_ss(term + r);
        const __m256 mask = _mm256_broadcast_ss(keep + r);
#pragma GCC unroll 16
        for (std::size_t v = 0; v < V; ++v) {
          acc[r][v] = _mm256_blendv_ps(
              acc[r][v], _mm256_fmadd_ps(av, bv[v], acc[r][v]), mask);
        }
      }
    }
  }
  // Unused row slots store into a scratch row, keeping every index
  // constant so the accumulators never leave registers.
  float dead[8 * V];
  float* out[kTnRows];
#pragma GCC unroll 16
  for (std::size_t r = 0; r < kTnRows; ++r) {
    out[r] = r < rows ? c + r * ldc : dead;
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v) {
      if (v + 1 == V) {
        _mm256_maskstore_ps(out[r] + 8 * v, last, acc[r][v]);
      } else {
        _mm256_storeu_ps(out[r] + 8 * v, acc[r][v]);
      }
    }
  }
}

/// avx2_tn_tile<V, Full>, indexed by [V - 1][Full].
constexpr void (*kTnTiles[kTnVecs][2])(float*, std::size_t, const float*,
                                       std::size_t, const float*, std::size_t,
                                       std::size_t, std::size_t, float,
                                       int) = {
    {avx2_tn_tile<1, false>, avx2_tn_tile<1, true>},
    {avx2_tn_tile<2, false>, avx2_tn_tile<2, true>}};

void avx2_gemm_tn(float* c, std::size_t ldc, const float* a, std::size_t lda,
                  const float* b, std::size_t ldb, std::size_t rows,
                  std::size_t cols, std::size_t k, float alpha) {
  for (std::size_t r0 = 0; r0 < rows; r0 += kTnRows) {
    const std::size_t tile_rows = std::min(kTnRows, rows - r0);
    for (std::size_t c0 = 0; c0 < cols; c0 += 8 * kTnVecs) {
      const std::size_t tile_cols = std::min(8 * kTnVecs, cols - c0);
      const std::size_t vecs = (tile_cols + 7) / 8;
      const int last_lanes = static_cast<int>((tile_cols - 1) % 8 + 1);
      kTnTiles[vecs - 1][tile_rows == kTnRows](c + r0 * ldc + c0, ldc, a + r0,
                                               lda, b + c0, ldb, tile_rows, k,
                                               alpha, last_lanes);
    }
  }
}

// ---- int8 quantized tier -------------------------------------------
// The classic maddubs/madd dot: u8 x s8 pairs widen to s16 (no
// saturation possible — codes are 7-bit by contract, so |pair sum| <=
// 2 * 127 * 127 < 2^15), then madd against ones widens to s32. All
// integer, hence exact and bitwise identical to the scalar reference.

std::int32_t avx2_dot_u8s8(const std::uint8_t* a, const std::int8_t* b,
                           std::size_t n) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i pairs = _mm256_maddubs_epi16(va, vb);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
  }
  const __m128i low = _mm256_castsi256_si128(acc);
  const __m128i high = _mm256_extracti128_si256(acc, 1);
  __m128i sum = _mm_add_epi32(low, high);
  sum = _mm_add_epi32(sum, _mm_unpackhi_epi64(sum, sum));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, 0x55));
  std::int32_t result = _mm_cvtsi128_si32(sum);
  for (; i < n; ++i) {
    result += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return result;
}

void avx2_axpy_dq8(float* y, const std::uint8_t* codes, float a,
                   std::int32_t zp, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  const __m256i vzp = _mm256_set1_epi32(zp);
  std::size_t i = 0;
  // 4x unroll (see the avx512 variant): independent code loads keep the
  // byte widening pipelined; per-lane math is unchanged, so results are
  // bitwise identical to the 8-wide and scalar loops.
  for (; i + 32 <= n; i += 32) {
    const __m128i b0 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i));
    const __m128i b1 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i + 8));
    const __m128i b2 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i + 16));
    const __m128i b3 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i + 24));
    const __m256 x0 = _mm256_cvtepi32_ps(
        _mm256_sub_epi32(_mm256_cvtepu8_epi32(b0), vzp));
    const __m256 x1 = _mm256_cvtepi32_ps(
        _mm256_sub_epi32(_mm256_cvtepu8_epi32(b1), vzp));
    const __m256 x2 = _mm256_cvtepi32_ps(
        _mm256_sub_epi32(_mm256_cvtepu8_epi32(b2), vzp));
    const __m256 x3 = _mm256_cvtepi32_ps(
        _mm256_sub_epi32(_mm256_cvtepu8_epi32(b3), vzp));
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, x0, _mm256_loadu_ps(y + i)));
    _mm256_storeu_ps(y + i + 8,
                     _mm256_fmadd_ps(va, x1, _mm256_loadu_ps(y + i + 8)));
    _mm256_storeu_ps(y + i + 16,
                     _mm256_fmadd_ps(va, x2, _mm256_loadu_ps(y + i + 16)));
    _mm256_storeu_ps(y + i + 24,
                     _mm256_fmadd_ps(va, x3, _mm256_loadu_ps(y + i + 24)));
  }
  for (; i + 8 <= n; i += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i));
    const __m256 x = _mm256_cvtepi32_ps(
        _mm256_sub_epi32(_mm256_cvtepu8_epi32(bytes), vzp));
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, x, _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) {
    y[i] = std::fmaf(
        a, static_cast<float>(static_cast<std::int32_t>(codes[i]) - zp), y[i]);
  }
}

void avx2_quantize_u8(std::uint8_t* codes, const float* x, float inv_scale,
                      std::int32_t zp, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(inv_scale);
  const __m256 lo = _mm256_set1_ps(-256.0f);
  const __m256 hi = _mm256_set1_ps(256.0f);
  const __m256i vzp = _mm256_set1_epi32(zp);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i v127 = _mm256_set1_epi32(127);
  // Per-128-bit-lane shuffle collecting byte 0 of each dword.
  const __m256i pick = _mm256_setr_epi8(
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // max_ps(v, lo) returns lo when v is NaN, matching the scalar
    // reference's ordered comparisons.
    __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x + i), vs);
    v = _mm256_max_ps(v, lo);
    v = _mm256_min_ps(v, hi);
    __m256i q = _mm256_add_epi32(_mm256_cvtps_epi32(v), vzp);
    q = _mm256_min_epi32(_mm256_max_epi32(q, zero), v127);
    const __m256i bytes = _mm256_shuffle_epi8(q, pick);
    const std::uint32_t low =
        static_cast<std::uint32_t>(_mm256_extract_epi32(bytes, 0));
    const std::uint32_t high =
        static_cast<std::uint32_t>(_mm256_extract_epi32(bytes, 4));
    std::memcpy(codes + i, &low, 4);
    std::memcpy(codes + i + 4, &high, 4);
  }
  for (; i < n; ++i) {
    float v = x[i] * inv_scale;
    v = v > -256.0f ? v : -256.0f;
    v = v < 256.0f ? v : 256.0f;
    const std::int32_t q = _mm_cvtss_si32(_mm_set_ss(v)) + zp;
    const std::int32_t clamped = q < 0 ? 0 : (q > 127 ? 127 : q);
    codes[i] = static_cast<std::uint8_t>(clamped);
  }
}

void avx2_dequantize_u8(float* y, const std::uint8_t* codes, float scale,
                        std::int32_t zp, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(scale);
  const __m256i vzp = _mm256_set1_epi32(zp);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i));
    const __m256 x = _mm256_cvtepi32_ps(
        _mm256_sub_epi32(_mm256_cvtepu8_epi32(bytes), vzp));
    _mm256_storeu_ps(y + i, _mm256_mul_ps(x, vs));
  }
  for (; i < n; ++i) {
    y[i] = static_cast<float>(static_cast<std::int32_t>(codes[i]) - zp) * scale;
  }
}

}  // namespace

namespace simd_detail {

const SimdOps kAvx2Ops = {
    "avx2",
    avx2_axpy,
    lane_dot,
    lane_dot_rows<Ymm, 1, 2>,
    avx2_bias_add,
    avx2_bias_relu,
    avx2_relu,
    avx2_scale,
    avx2_gemm_tn,
    avx2_dot_u8s8,
    avx2_axpy_dq8,
    avx2_quantize_u8,
    avx2_dequantize_u8,
};

}  // namespace simd_detail
}  // namespace gcnt

#else  // !(__AVX2__ && __FMA__): non-x86 or toolchain without the flags.

namespace gcnt::simd_detail {

const SimdOps kAvx2Ops = {};

}  // namespace gcnt::simd_detail

#endif
