#pragma once
// The lane-blocked fp32 dot product of the avx2 and avx512 targets,
// included by exactly those two translation units. Each compiles it
// with its own ISA flags; the anonymous namespace gives every includer
// a private copy, so the avx2 table can never end up calling code that
// was compiled for AVX-512.
//
// Blocking (the one reassociating fp32 kernel, see simd.h): four 8-lane
// accumulators take consecutive 8-element chunks of each 32-element
// block, an 8-element remainder goes into the first, they reduce as
// (acc0 + acc1) + (acc2 + acc3), the 8 lanes fold as
// ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)), and the last
// n % 8 elements are added one std::fmaf at a time. Keeping this
// blocking identical on both targets makes the whole fp32 avx512 target
// bitwise identical to avx2.

#include <immintrin.h>

#include <cmath>
#include <cstddef>

namespace gcnt {
namespace {

/// a[i] * b[i] + acc on 8 lanes.
inline __m256 fma8(const float* a, const float* b, __m256 acc) {
  return _mm256_fmadd_ps(_mm256_loadu_ps(a), _mm256_loadu_ps(b), acc);
}

/// Adds the last n % 8 products, one fmaf each, in ascending order.
inline float fma_tail(const float* a, const float* b, std::size_t n,
                      float sum) {
  for (std::size_t i = n - n % 8; i < n; ++i) {
    sum = std::fmaf(a[i], b[i], sum);
  }
  return sum;
}

inline float lane_dot(const float* a, const float* b, std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = fma8(a + i, b + i, acc0);
    acc1 = fma8(a + i + 8, b + i + 8, acc1);
    acc2 = fma8(a + i + 16, b + i + 16, acc2);
    acc3 = fma8(a + i + 24, b + i + 24, acc3);
  }
  for (; i + 8 <= n; i += 8) acc0 = fma8(a + i, b + i, acc0);
  const __m256 acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                   _mm256_add_ps(acc2, acc3));
  const __m128 low = _mm256_castps256_ps128(acc);
  const __m128 high = _mm256_extractf128_ps(acc, 1);
  __m128 sum = _mm_add_ps(low, high);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_movehdup_ps(sum));
  return fma_tail(a, b, n, _mm_cvtss_f32(sum));
}

/// out[g] = lane_dot(a, b + g * ldb, n) for g < 4, bit for bit. The
/// accumulator pairs (acc0, acc1) and (acc2, acc3) of the four rows run
/// in two sweeps so both fit in 16 registers, and the four 8-lane folds
/// run transposed — two rows per register — through the same pairings.
[[gnu::always_inline]] inline void lane_dot4(float* out, const float* a,
                                             const float* b, std::size_t ldb,
                                             std::size_t n) {
  const float* rows[4] = {b, b + ldb, b + 2 * ldb, b + 3 * ldb};
  __m256 u[4];
  {
    __m256 acc0[4] = {}, acc1[4] = {};
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
#pragma GCC unroll 4
      for (int g = 0; g < 4; ++g) {
        acc0[g] = fma8(a + i, rows[g] + i, acc0[g]);
        acc1[g] = fma8(a + i + 8, rows[g] + i + 8, acc1[g]);
      }
    }
    for (; i + 8 <= n; i += 8) {
#pragma GCC unroll 4
      for (int g = 0; g < 4; ++g) {
        acc0[g] = fma8(a + i, rows[g] + i, acc0[g]);
      }
    }
#pragma GCC unroll 4
    for (int g = 0; g < 4; ++g) u[g] = _mm256_add_ps(acc0[g], acc1[g]);
  }
  {
    __m256 acc2[4] = {}, acc3[4] = {};
    for (std::size_t i = 0; i + 32 <= n; i += 32) {
#pragma GCC unroll 4
      for (int g = 0; g < 4; ++g) {
        acc2[g] = fma8(a + i + 16, rows[g] + i + 16, acc2[g]);
        acc3[g] = fma8(a + i + 24, rows[g] + i + 24, acc3[g]);
      }
    }
#pragma GCC unroll 4
    for (int g = 0; g < 4; ++g) {
      u[g] = _mm256_add_ps(u[g], _mm256_add_ps(acc2[g], acc3[g]));
    }
  }
  // low + high: w01 = [w0 | w1], w23 = [w2 | w3].
  const __m256 w01 = _mm256_add_ps(_mm256_permute2f128_ps(u[0], u[1], 0x20),
                                   _mm256_permute2f128_ps(u[0], u[1], 0x31));
  const __m256 w23 = _mm256_add_ps(_mm256_permute2f128_ps(u[2], u[3], 0x20),
                                   _mm256_permute2f128_ps(u[2], u[3], 0x31));
  // sum + movehl(sum): x = [x0[0], x0[1], x2[0], x2[1] | x1[..], x3[..]].
  const __m256 x = _mm256_add_ps(_mm256_shuffle_ps(w01, w23, 0x44),
                                 _mm256_shuffle_ps(w01, w23, 0xEE));
  // x[0] + x[1]: r = [r0, r2, r0, r2 | r1, r3, r1, r3].
  const __m256 r = _mm256_add_ps(_mm256_shuffle_ps(x, x, 0x88),
                                 _mm256_shuffle_ps(x, x, 0xDD));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, r);
  const float folded[4] = {lanes[0], lanes[4], lanes[1], lanes[5]};
#pragma GCC unroll 4
  for (int g = 0; g < 4; ++g) out[g] = fma_tail(a, rows[g], n, folded[g]);
}

/// The dot_rows table entry: lane_dot4 over groups of four rows, then
/// lane_dot for the rest.
inline void lane_dot_rows(float* out, const float* a, const float* b,
                          std::size_t ldb, std::size_t n, std::size_t count) {
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) lane_dot4(out + j, a, b + j * ldb, ldb, n);
  for (; j < count; ++j) out[j] = lane_dot(a, b + j * ldb, n);
}

}  // namespace
}  // namespace gcnt
