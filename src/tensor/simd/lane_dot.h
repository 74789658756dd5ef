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

// ---- dot_rows: lane_dot's order, outputs across the lanes ------------
// lane_dot's result is a fixed function of 32 chains — chain (q, l) runs
// over the elements 32 t + 8 q + l (plus, for q = 0, the 8-element
// remainder chunks) — folded by the tree above, then the fmaf tail. All
// of it is elementwise per output, so dot_rows computes each chain and
// fold step for V::kLanes outputs per register instead: b's rows are
// packed transposed (column c of the pack holds output c's b row), each
// a element is broadcast, and no horizontal reduction is left. Every
// output is bit for bit lane_dot's, on every tile shape. V is the
// includer's register traits (Reg, kLanes, zero, load, broadcast, fma,
// add, and a store of the first `count` lanes).

/// Longest dot the packed kernel takes (its pack lives on the stack);
/// longer ones fall back to lane_dot per output.
constexpr std::size_t kMaxPackedDot = 512;

/// R a rows x G vectors of outputs over `packed` (n x kLanes * G floats,
/// row i = element i of each output's b row); `cols` of the G * kLanes
/// outputs are stored.
template <class V, std::size_t R, std::size_t G>
[[gnu::always_inline]] inline void lane_dot_rows_tile(
    float* out, std::size_t ldo, const float* a, std::size_t lda,
    const float* packed, std::size_t n, std::size_t cols) {
  using Reg = typename V::Reg;
  constexpr std::size_t kWidth = V::kLanes * G;
  const std::size_t blocks = n / 32;
  const std::size_t chunks = n % 32 / 8;
  // Below 8 elements every chain is empty and the fold is +0.
  Reg sum[R][G];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t g = 0; g < G; ++g) sum[r][g] = V::zero();
  }
  if (n >= 8) {
    // u[l] = (acc0 + acc1) + (acc2 + acc3) of lane position l.
    Reg u[8][R][G];
    for (std::size_t l = 0; l < 8; ++l) {
      Reg acc[4][R][G];
#pragma GCC unroll 4
      for (std::size_t q = 0; q < 4; ++q) {
#pragma GCC unroll 4
        for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
          for (std::size_t g = 0; g < G; ++g) acc[q][r][g] = V::zero();
        }
      }
      const auto step = [&](std::size_t q, std::size_t i) {
        Reg bv[G];
#pragma GCC unroll 4
        for (std::size_t g = 0; g < G; ++g) {
          bv[g] = V::load(packed + i * kWidth + g * V::kLanes);
        }
#pragma GCC unroll 4
        for (std::size_t r = 0; r < R; ++r) {
          const Reg av = V::broadcast(a[r * lda + i]);
#pragma GCC unroll 4
          for (std::size_t g = 0; g < G; ++g) {
            acc[q][r][g] = V::fma(av, bv[g], acc[q][r][g]);
          }
        }
      };
      for (std::size_t t = 0; t < blocks; ++t) {
#pragma GCC unroll 4
        for (std::size_t q = 0; q < 4; ++q) step(q, 32 * t + 8 * q + l);
      }
      for (std::size_t c = 0; c < chunks; ++c) {
        step(0, 32 * blocks + 8 * c + l);
      }
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
        for (std::size_t g = 0; g < G; ++g) {
          u[l][r][g] = V::add(V::add(acc[0][r][g], acc[1][r][g]),
                              V::add(acc[2][r][g], acc[3][r][g]));
        }
      }
    }
    // ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)).
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
      for (std::size_t g = 0; g < G; ++g) {
        sum[r][g] = V::add(V::add(V::add(u[0][r][g], u[4][r][g]),
                                  V::add(u[2][r][g], u[6][r][g])),
                           V::add(V::add(u[1][r][g], u[5][r][g]),
                                  V::add(u[3][r][g], u[7][r][g])));
      }
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t g = 0; g < G; ++g) {
      Reg& total = sum[r][g];
      for (std::size_t i = n - n % 8; i < n; ++i) {
        total = V::fma(V::broadcast(a[r * lda + i]),
                       V::load(packed + i * kWidth + g * V::kLanes), total);
      }
      const std::size_t first = g * V::kLanes;
      if (first < cols) {
        V::store(out + r * ldo + first, total,
                 cols - first < V::kLanes ? cols - first : V::kLanes);
      }
    }
  }
}

/// The dot_rows table entry: per group of G * V::kLanes outputs, pack
/// their b rows transposed, then sweep the a rows R at a time. Callers
/// pass many a rows per call so the pack amortizes.
template <class V, std::size_t R, std::size_t G>
void lane_dot_rows(float* out, std::size_t ldo, const float* a,
                   std::size_t lda, std::size_t rows, const float* b,
                   std::size_t ldb, std::size_t n, std::size_t count) {
  constexpr std::size_t kWidth = V::kLanes * G;
  if (n > kMaxPackedDot) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < count; ++j) {
        out[r * ldo + j] = lane_dot(a + r * lda, b + j * ldb, n);
      }
    }
    return;
  }
  alignas(64) float packed[kMaxPackedDot * kWidth];
  for (std::size_t j0 = 0; j0 < count; j0 += kWidth) {
    const std::size_t cols = count - j0 < kWidth ? count - j0 : kWidth;
    for (std::size_t c = 0; c < kWidth; ++c) {
      if (c < cols) {
        const float* brow = b + (j0 + c) * ldb;
        for (std::size_t i = 0; i < n; ++i) packed[i * kWidth + c] = brow[i];
      } else {
        for (std::size_t i = 0; i < n; ++i) packed[i * kWidth + c] = 0.0f;
      }
    }
    std::size_t r = 0;
    for (; r + R <= rows; r += R) {
      lane_dot_rows_tile<V, R, G>(out + r * ldo + j0, ldo, a + r * lda, lda,
                                  packed, n, cols);
    }
    for (; r < rows; ++r) {
      lane_dot_rows_tile<V, 1, G>(out + r * ldo + j0, ldo, a + r * lda, lda,
                                  packed, n, cols);
    }
  }
}

}  // namespace
}  // namespace gcnt
