// Portable fallback microkernels. The loops are blocked at a fixed width
// of 8 elements so the compiler's vectorizer has a clean unit to work
// with on any ISA, but every operation stays per-element independent (or,
// for dot, strictly ascending-order) — this target reproduces the
// historical scalar kernels bit-for-bit, which is what the cross-target
// tolerance tests compare AVX2/AVX-512 against.
//
// The int8 ops are the semantic reference for the quantized tier: the
// AVX2/AVX-512 implementations must match them bit-for-bit (integer
// accumulation is exact, the float steps use std::fmaf / a single
// multiply, and quantization rounds to nearest-even — the same one
// rounding sequence the vector cvtps path performs).

#include "tensor/simd/simd.h"

#include <cmath>

namespace gcnt {
namespace {

constexpr std::size_t kBlock = 8;

void scalar_axpy(float* y, const float* x, float a, std::size_t n) {
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    for (std::size_t j = 0; j < kBlock; ++j) y[i + j] += a * x[i + j];
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

float scalar_dot(const float* a, const float* b, std::size_t n) {
  // Ascending-order fp32 accumulation — the documented GEMM policy
  // (matrix.h). Deliberately not blocked into partial sums: reassociation
  // is the AVX2/AVX-512 targets' documented, tolerance-tested deviation.
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void scalar_dot_rows(float* out, std::size_t ldo, const float* a,
                     std::size_t lda, std::size_t rows, const float* b,
                     std::size_t ldb, std::size_t n, std::size_t count) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < count; ++j) {
      out[r * ldo + j] = scalar_dot(a + r * lda, b + j * ldb, n);
    }
  }
}

void scalar_bias_add(float* y, const float* bias, std::size_t n) {
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    for (std::size_t j = 0; j < kBlock; ++j) y[i + j] += bias[i + j];
  }
  for (; i < n; ++i) y[i] += bias[i];
}

void scalar_bias_relu(float* y, const float* bias, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float v = y[i] + bias[i];
    y[i] = v > 0.0f ? v : 0.0f;
  }
}

void scalar_relu(float* y, std::size_t n) {
  // `v > 0 ? v : 0` (not `v < 0`) so -0.0 canonicalizes to +0.0 exactly
  // like the historical Relu::forward and the AVX2 max(v, 0).
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = y[i] > 0.0f ? y[i] : 0.0f;
  }
}

void scalar_scale(float* y, float a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= a;
}

// Weight-gradient block: axpy()'s `y += a * x` per element and the same
// `continue` on a zero row term, one output row at a time so the row
// stays cache-resident across the k loop.
void scalar_gemm_tn(float* c, std::size_t ldc, const float* a,
                    std::size_t lda, const float* b, std::size_t ldb,
                    std::size_t rows, std::size_t cols, std::size_t k,
                    float alpha) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = alpha * a[p * lda + r];
      if (av == 0.0f) continue;
      const float* brow = b + p * ldb;
      for (std::size_t j = 0; j < cols; ++j) crow[j] += av * brow[j];
    }
  }
}

std::int32_t scalar_dot_u8s8(const std::uint8_t* a, const std::int8_t* b,
                             std::size_t n) {
  std::int32_t acc = 0;
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    for (std::size_t j = 0; j < kBlock; ++j) {
      acc += static_cast<std::int32_t>(a[i + j]) *
             static_cast<std::int32_t>(b[i + j]);
    }
  }
  for (; i < n; ++i) {
    acc += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return acc;
}

void scalar_axpy_dq8(float* y, const std::uint8_t* codes, float a,
                     std::int32_t zp, std::size_t n) {
  // fmaf, not a * x + y: the vector targets fuse this multiply-add, and
  // the int8 tier's cross-target bitwise contract requires the scalar
  // reference to perform the same single rounding.
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = std::fmaf(
        a, static_cast<float>(static_cast<std::int32_t>(codes[i]) - zp), y[i]);
  }
}

void scalar_quantize_u8(std::uint8_t* codes, const float* x, float inv_scale,
                        std::int32_t zp, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    // Pre-clamp to [-256, 256] exactly like the vector paths, so huge or
    // NaN inputs cannot hit int-conversion UB (NaN lands on the lower
    // clamp and quantizes to code 0 after the final clamp).
    float v = x[i] * inv_scale;
    v = v > -256.0f ? v : -256.0f;
    v = v < 256.0f ? v : 256.0f;
    const std::int32_t q = static_cast<std::int32_t>(std::nearbyintf(v)) + zp;
    const std::int32_t clamped = q < 0 ? 0 : (q > 127 ? 127 : q);
    codes[i] = static_cast<std::uint8_t>(clamped);
  }
}

void scalar_dequantize_u8(float* y, const std::uint8_t* codes, float scale,
                          std::int32_t zp, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<float>(static_cast<std::int32_t>(codes[i]) - zp) * scale;
  }
}

}  // namespace

namespace simd_detail {

const SimdOps kScalarOps = {
    "scalar",          scalar_axpy,      scalar_dot,
    scalar_dot_rows,   scalar_bias_add,  scalar_bias_relu,
    scalar_relu,       scalar_scale,     scalar_gemm_tn,
    scalar_dot_u8s8,   scalar_axpy_dq8,  scalar_quantize_u8,
    scalar_dequantize_u8,
};

}  // namespace simd_detail
}  // namespace gcnt
