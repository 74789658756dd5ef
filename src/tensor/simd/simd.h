#pragma once
// Vectorized microkernel backend for the dense/sparse hot loops.
//
// Every inner loop the compute kernels spend their time in (the
// register-blocked GEMM tile, SpMM row accumulation, single and
// multi-row dot products, the bias/ReLU epilogues, the vec_ops.h row
// helpers, and the int8 quantized tier) funnels through one table of
// function pointers — SimdOps — resolved once per process by runtime CPU
// detection. Three implementations are built into every binary:
//
//   * scalar — portable fixed-width-blocked loops, no ISA requirements.
//     The per-element accumulation order of the fp32 ops is exactly the
//     historical scalar kernels', so results on this target reproduce
//     pre-SIMD builds bit-for-bit.
//   * avx2   — AVX2 + FMA intrinsics (x86-64 only), compiled in a
//     separate translation unit with -mavx2 -mfma and only ever invoked
//     after a CPUID check, so the binary stays runnable on older CPUs.
//   * avx512 — AVX-512 F/BW/VL intrinsics (x86-64 only), again a
//     separate TU behind CPUID. 16-lane kernels with masked-tail
//     handling: remainder elements are processed by masked loads/stores
//     with the same per-element operation as the vector body, so tails
//     never change results.
//
// Target resolution, highest priority first:
//   1. set_simd_target(t)  — programmatic override (tests, benches,
//      the gcnt --simd flag)
//   2. GCNT_SIMD=auto|avx512|avx2|scalar — environment, read once per
//      process (an unavailable request logs a warning and falls back to
//      the best available target)
//   3. best target the CPU supports (avx512 > avx2 > scalar)
//
// Determinism contract (see docs/API.md "SIMD backend"):
//   * For a FIXED target, every kernel built on these ops is bitwise
//     deterministic across thread counts and runs —
//     vector lanes map one-to-one onto output elements for the
//     elementwise ops (axpy, gemm_tn, bias/ReLU epilogues, scale), so no
//     floating-point reassociation happens there at all.
//   * ACROSS targets the fp32 results differ within a small tolerance:
//     the AVX2/AVX-512 ops contract multiply-add pairs to FMA (one
//     rounding instead of two) and dot() accumulates in lane-blocked
//     partial sums.
//   * The int8 ops (dot_u8s8, axpy_dq8, quantize_u8, dequantize_u8) are
//     bitwise identical ACROSS targets as well: integer accumulation is
//     exact on every path, the dequantizing float steps are per-element
//     with a fixed operation sequence (fmaf / single multiply), and
//     quantization rounds to nearest-even on every target.
//
// The active target is published to the stats registry as the
// "simd.target" gauge (0 = scalar, 1 = avx2, 2 = avx512) and recorded by
// the bench JSON writer as "schema.simd" so perf results always carry
// the path that produced them.

#include <cstddef>
#include <cstdint>

namespace gcnt {

enum class SimdTarget : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// The microkernel table. All pointers are always non-null.
struct SimdOps {
  /// Human-readable target name ("scalar", "avx2", "avx512").
  const char* name;

  /// y[i] += a * x[i] for i in [0, n).
  void (*axpy)(float* y, const float* x, float a, std::size_t n);

  /// sum of a[i] * b[i] over [0, n), fp32 accumulation. The scalar
  /// target sums in ascending-i order; AVX2/AVX-512 sum lane-blocked
  /// partials.
  float (*dot)(const float* a, const float* b, std::size_t n);

  /// out[r * ldo + j] = dot(a + r * lda, b + j * ldb, n) for r < rows
  /// and j < count, each bitwise equal to dot(): a tile of a rows against
  /// consecutive b rows — the input gradient dy * W^T (gemm_nt). The
  /// vector targets run dot()'s lane order with the outputs across the
  /// vector lanes (lane_dot.h).
  void (*dot_rows)(float* out, std::size_t ldo, const float* a,
                   std::size_t lda, std::size_t rows, const float* b,
                   std::size_t ldb, std::size_t n, std::size_t count);

  /// y[i] += bias[i] (row-broadcast bias epilogue).
  void (*bias_add)(float* y, const float* bias, std::size_t n);

  /// y[i] = max(y[i] + bias[i], 0) — fused bias + ReLU epilogue.
  void (*bias_relu)(float* y, const float* bias, std::size_t n);

  /// y[i] = max(y[i], 0) in place.
  void (*relu)(float* y, std::size_t n);

  /// y[i] *= a.
  void (*scale)(float* y, float a, std::size_t n);

  // ---- fp32 GEMM microkernels (tensor/matrix.cpp) -------------------

  /// Transpose-a block update — the weight gradient, and (through a
  /// packed a^T row block, see gemm_nn_block in matrix.cpp) every
  /// no-transpose product: gemm, gemm_bias_act and the fused GCN forward.
  /// For r < rows, j < cols:
  ///   c[r * ldc + j] += (alpha * a[p * lda + r]) * b[p * ldb + j]
  /// for p ascending over [0, k). A product whose alpha * a term compares
  /// equal to zero is skipped exactly (the accumulator is left untouched,
  /// so Inf/NaN in that b row cannot leak in): a masked FMA on avx512;
  /// on avx2 a tile's four row terms are tested together — a p whose
  /// terms are all zero is skipped outright, one whose terms are all live
  /// runs plain FMAs, and a mixed p blends; the branch on scalar. Each
  /// element performs the same operation sequence axpy() would, one p at
  /// a time — scalar a separate multiply and add, avx2/avx512 one fmaf.
  /// The vector targets walk the block in register tiles (avx2 4 x 16,
  /// avx512 4 x 64) whose accumulators stay in registers across the k
  /// loop; scalar walks it one output row at a time.
  void (*gemm_tn)(float* c, std::size_t ldc, const float* a, std::size_t lda,
                  const float* b, std::size_t ldb, std::size_t rows,
                  std::size_t cols, std::size_t k, float alpha);

  // ---- int8 quantized tier (gcn/quant.h) ----------------------------
  // Activation codes are 7-bit unsigned (0..127) with an explicit zero
  // point; weights are signed 8-bit (-127..127). The 7-bit activation
  // range is a hard precondition of dot_u8s8: it bounds every
  // maddubs-style pair sum to |2 * 127 * 127| < 2^15, so the widening
  // 16-bit step can never saturate and integer accumulation stays exact
  // (and therefore bitwise identical) on every target.

  /// Exact int32 dot product: sum of a[i] * b[i] with a unsigned 7-bit
  /// and b signed 8-bit codes. Integer accumulation — associative, so
  /// bitwise identical across targets, threads, and blocking.
  std::int32_t (*dot_u8s8)(const std::uint8_t* a, const std::int8_t* b,
                           std::size_t n);

  /// Dequantizing axpy for int8 SpMM with fp32 accumulation:
  /// y[i] = fmaf(a, float(int(codes[i]) - zp), y[i]). The integer
  /// subtract and int->float conversion are exact and the single fused
  /// multiply-add is used on every target (scalar uses std::fmaf), so
  /// results are bitwise identical across targets.
  void (*axpy_dq8)(float* y, const std::uint8_t* codes, float a,
                   std::int32_t zp, std::size_t n);

  /// codes[i] = clamp(rint(x[i] * inv_scale) + zp, 0, 127), rounding to
  /// nearest-even (cvtps semantics on every target). Inputs are clamped
  /// to [-256, 256] before conversion so overflow/NaN cannot produce
  /// target-dependent codes (NaN quantizes to code 0).
  void (*quantize_u8)(std::uint8_t* codes, const float* x, float inv_scale,
                      std::int32_t zp, std::size_t n);

  /// y[i] = float(int(codes[i]) - zp) * scale — one multiply per
  /// element, bitwise identical across targets.
  void (*dequantize_u8)(float* y, const std::uint8_t* codes, float scale,
                        std::int32_t zp, std::size_t n);
};

/// The resolved microkernel table (override > GCNT_SIMD > CPU detect).
/// Cheap enough to call per kernel invocation: one relaxed atomic load.
const SimdOps& simd_ops();

/// The resolved dispatch target.
SimdTarget simd_target();

/// Name of the resolved dispatch target ("scalar" / "avx2" / "avx512").
const char* simd_target_name();

/// True when this host can execute `target`.
bool simd_target_available(SimdTarget target);

/// Forces the dispatch target. Returns false (and changes nothing) when
/// the host cannot execute it. Must not race with running kernels.
bool set_simd_target(SimdTarget target);

/// Drops the programmatic override; resolution falls back to
/// GCNT_SIMD / CPU detection on next use.
void reset_simd_target();

namespace simd_detail {
/// The built-in tables (kernels_scalar.cpp / kernels_avx2.cpp /
/// kernels_avx512.cpp).
extern const SimdOps kScalarOps;
extern const SimdOps kAvx2Ops;    ///< name == nullptr when compiled out
extern const SimdOps kAvx512Ops;  ///< name == nullptr when compiled out
}  // namespace simd_detail

}  // namespace gcnt
