#pragma once
// Int8 quantized inference tier: library-only. No command, serve option
// or model file selects it; it stays for perfbench's int8 probes and goes
// with them (ROADMAP item 4). On the whole forward it loses to fp32.
//
// Weights: per-output-column symmetric int8 — scales[j] = max|w[:,j]| /
// 127, calibrated when the tier is selected (GcnModel::set_precision).
// Column granularity is what makes 8 bits enough here: Xavier
// columns differ in magnitude enough that a single per-layer scale
// crushes the small ones (measured: per-layer weight scales topped out
// around 98.6-98.7% fp32 agreement on the Table 2 suite regardless of
// activation granularity; per-column clears the 99% gate). Weights are
// stored transposed (out x in) so each output column's codes are
// contiguous for the dot_u8s8 microkernel, with precomputed per-column
// code sums for the zero-point correction.
//
// Activations: per-row (per-node) asymmetric 7-bit unsigned — each row
// gets its own scale and zero point from its own min/max, with the range
// extended to include 0.0 so exact zeros (ReLU output, padding) quantize
// losslessly. Row granularity keeps the codes meaningful per node:
// activation magnitudes vary by orders of magnitude across nodes, and a
// single per-tensor range would crush small-activation rows into a
// handful of codes. The 7-bit range is what lets dot_u8s8 use the
// maddubs/madd widening path without any possibility of 16-bit
// saturation (see tensor/simd/simd.h).
//
// Numerics: all matrix products accumulate exactly in int32; the only
// float steps are the per-element dequantize epilogues (one fmaf) and
// the dynamic range scan + quantize (nearest-even rounding). Every step
// is per-element or integer-associative — the Eq. 1 aggregation combine
// goes through axpy_exact (one std::fmaf per element on every path)
// rather than the target-dependent fp32 axpy — so int8 results are
// bitwise deterministic across thread counts AND dispatch targets.
//
// Accuracy is gated, not assumed: bench/quant_agreement.cpp pins
// classification agreement vs fp32 at >= 99% on the Table 2 suite, and
// tools/bench_gate enforces the committed "quant.agreement" key exactly
// (zero regression tolerance) in CI.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/layers.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace gcnt {

/// Inference precision tier. Selected per model (GcnModel::set_precision).
enum class Precision : int {
  kFp32 = 0,
  kInt8 = 1,
};

/// "fp32" / "int8".
const char* precision_name(Precision precision);

/// Resolves the precision tier: `flag` (may be null) takes priority over
/// the GCNT_PRECISION environment variable; both accept "fp32" | "int8".
/// Only perfbench reads it (its `schema.precision` field). Unset
/// resolves to kFp32; an unknown value logs a warning and resolves to
/// kFp32.
Precision resolve_precision(const char* flag = nullptr);

/// Per-row 7-bit unsigned activation codes with per-row asymmetric zero
/// points: dequant of row r = (code - zero_points[r]) * scales[r].
/// Buffers reuse their allocation across resizes exactly like Matrix, so
/// the ForwardWorkspace zero-alloc contract extends to the int8 tier.
struct QuantizedTensor {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::uint8_t> codes;        ///< row-major, rows * cols
  std::vector<float> scales;              ///< one per row
  std::vector<std::int32_t> zero_points;  ///< one per row, in [0, 127]

  void resize(std::size_t r, std::size_t c) {
    rows = r;
    cols = c;
    codes.assign(r * c, 0);
    scales.assign(r, 1.0f);
    zero_points.assign(r, 0);
  }
  const std::uint8_t* row(std::size_t r) const noexcept {
    return codes.data() + r * cols;
  }
  std::uint8_t* row(std::size_t r) noexcept { return codes.data() + r * cols; }
  std::size_t capacity() const noexcept { return codes.capacity(); }
};

/// Per-output-column symmetric int8 weight snapshot of one Linear layer:
/// dequant of column j = q * scales[j], codes in [-127, 127]. `weight_t`
/// is the transposed (out x in) weight so row j holds output column j's
/// codes; `col_sums[j]` is the int32 sum of that row, used for the
/// activation zero-point correction. The bias stays fp32 (it is added in
/// the dequantized epilogue).
struct QuantizedLinear {
  std::size_t in = 0;
  std::size_t out = 0;
  std::vector<float> scales;           ///< one per output column
  std::vector<std::int8_t> weight_t;   ///< out x in, row-major
  std::vector<std::int32_t> col_sums;  ///< per output column

  const std::int8_t* row(std::size_t j) const noexcept {
    return weight_t.data() + j * in;
  }
};

/// Calibrates a symmetric per-output-column int8 snapshot of `layer`'s
/// weights (scales[j] = max|w[:,j]| / 127, nearest-even rounding).
QuantizedLinear quantize_linear(const Linear& layer);

/// Dynamic per-row activation quantization: scans each row's min/max
/// (extended to include 0), derives that row's scale / zero point
/// targeting codes [0, 127], and encodes it. Rows are independent, so
/// the result is deterministic for any thread count by construction.
void quantize_tensor(const Matrix& x, QuantizedTensor& out);

/// out[r][c] = (codes[r][c] - zero_points[r]) * scales[r], resized to
/// q's shape.
void dequantize_tensor(const QuantizedTensor& q, Matrix& out);

/// Quantized dense layer: out = act(dequant(x * Wq^T) + bias), with the
/// product accumulated exactly in int32 via dot_u8s8 and the epilogue
/// applying the zero-point correction, combined scale, bias, and
/// optional ReLU in one fmaf-based per-element pass. `bias` is
/// 1 x layer.out. Parallel over rows; bitwise deterministic (see file
/// comment).
void quantized_linear_forward(const QuantizedTensor& x,
                              const QuantizedLinear& layer, const Matrix& bias,
                              Matrix& out, bool relu);

/// Int8 SpMM with fp32 accumulation: out = alpha * a * dequant(q). The
/// dense operand streams as u8 codes (4x less gather traffic than fp32 —
/// this is where the int8 SpMM speedup comes from; SpMM is bandwidth
/// bound on the gathered rows). Same row-block walk and ascending-k
/// per-element order as CsrMatrix::spmm, so the bitwise guarantee across
/// thread counts carries over.
void spmm_q8(const CsrMatrix& a, const QuantizedTensor& q, Matrix& out,
             float alpha = 1.0f);

/// Target-independent y += a * x over same-shape matrices: one
/// std::fmaf per element, parallel over fixed blocks. The fp32 Eq. 1
/// identity term inside the int8 forward uses this instead of the SimdOps
/// axpy, whose FMA contraction is target-dependent (scalar does mul+add)
/// and would break the int8 tier's cross-target bit-identity.
void axpy_exact(Matrix& y, float a, const Matrix& x);

}  // namespace gcnt
