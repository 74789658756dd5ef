#include "gcn/quant.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/debug_assert.h"
#include "common/error.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "tensor/simd/simd.h"

namespace gcnt {

namespace {

// Same inline-below-this thresholds as the fp32 kernels in sparse.cpp.
constexpr std::size_t kMinParallelRows = 128;
constexpr std::size_t kMinParallelElems = 1 << 15;

Precision parse_precision(const char* text, const char* source) {
  const std::string value(text);
  if (value == "fp32" || value == "float32" || value == "f32") {
    return Precision::kFp32;
  }
  if (value == "int8" || value == "i8") return Precision::kInt8;
  log_warn("unknown precision '", value, "' from ", source,
           "; using fp32 (valid: fp32, int8)");
  return Precision::kFp32;
}

}  // namespace

const char* precision_name(Precision precision) {
  return precision == Precision::kInt8 ? "int8" : "fp32";
}

Precision resolve_precision(const char* flag) {
  if (flag != nullptr && *flag != '\0') {
    return parse_precision(flag, "--precision");
  }
  const char* env = std::getenv("GCNT_PRECISION");
  if (env != nullptr && *env != '\0') {
    return parse_precision(env, "GCNT_PRECISION");
  }
  return Precision::kFp32;
}

QuantizedLinear quantize_linear(const Linear& layer) {
  GCNT_KERNEL_SCOPE("quantize_linear");
  const Matrix& w = layer.weight.value;  // in x out
  QuantizedLinear q;
  q.in = w.rows();
  q.out = w.cols();
  // Per-output-column amax: one scale per column keeps small-magnitude
  // columns from being crushed by the largest weight in the layer.
  std::vector<float> amax(q.out, 0.0f);
  for (std::size_t k = 0; k < q.in; ++k) {
    const float* wrow = w.row(k);
    for (std::size_t j = 0; j < q.out; ++j) {
      const float a = std::fabs(wrow[j]);
      if (a > amax[j]) amax[j] = a;
    }
  }
  q.scales.resize(q.out);
  std::vector<float> inv_scales(q.out);
  for (std::size_t j = 0; j < q.out; ++j) {
    if (!std::isfinite(amax[j])) {
      throw Error(ErrorKind::kInternal,
                  "quantize_linear: non-finite weight encountered");
    }
    q.scales[j] = amax[j] > 0.0f ? amax[j] / 127.0f : 1.0f;
    inv_scales[j] = 1.0f / q.scales[j];
  }
  q.weight_t.assign(q.in * q.out, 0);
  q.col_sums.assign(q.out, 0);
  // Transpose during encode: weight_t row j = output column j of W.
  for (std::size_t k = 0; k < q.in; ++k) {
    const float* wrow = w.row(k);
    for (std::size_t j = 0; j < q.out; ++j) {
      const float v = wrow[j] * inv_scales[j];
      std::int32_t code = static_cast<std::int32_t>(std::nearbyintf(v));
      code = std::clamp(code, -127, 127);
      q.weight_t[j * q.in + k] = static_cast<std::int8_t>(code);
    }
  }
  for (std::size_t j = 0; j < q.out; ++j) {
    std::int32_t sum = 0;
    const std::int8_t* row = q.row(j);
    for (std::size_t k = 0; k < q.in; ++k) sum += row[k];
    q.col_sums[j] = sum;
  }
  return q;
}

void quantize_tensor(const Matrix& x, QuantizedTensor& out) {
  GCNT_KERNEL_SCOPE("quantize_tensor");
  const std::size_t rows = x.rows();
  const std::size_t cols = x.cols();
  out.rows = rows;
  out.cols = cols;
  out.codes.resize(x.size());
  out.scales.resize(rows);
  out.zero_points.resize(rows);
  const SimdOps& ops = simd_ops();
  // Rows are quantized independently (per-row scale / zero point), so
  // parallelism over row blocks cannot change any result.
  parallel_blocks(rows, kMinParallelRows,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      const float* data = x.row(r);
      // Min/max scan starting at 0 so lo <= 0 <= hi: zero always
      // quantizes exactly (zp = round(-lo / scale) maps 0.0 -> code zp).
      float lo = 0.0f;
      float hi = 0.0f;
      for (std::size_t c = 0; c < cols; ++c) {
        const float v = data[c];
        if (v < lo) lo = v;
        if (v > hi) hi = v;
      }
      const float range = hi - lo;
      if (!std::isfinite(range) || range <= 0.0f) {
        // All-zero (or degenerate) row: every code is the zero point.
        out.scales[r] = 1.0f;
        out.zero_points[r] = 0;
        std::memset(out.row(r), 0, cols);
        continue;
      }
      out.scales[r] = range / 127.0f;
      const float inv_scale = 127.0f / range;
      const std::int32_t zp = std::clamp(
          static_cast<std::int32_t>(std::nearbyintf(-lo * inv_scale)), 0,
          127);
      out.zero_points[r] = zp;
      ops.quantize_u8(out.row(r), data, inv_scale, zp, cols);
    }
  });
}

void dequantize_tensor(const QuantizedTensor& q, Matrix& out) {
  out.resize(q.rows, q.cols);
  const SimdOps& ops = simd_ops();
  parallel_blocks(q.rows, kMinParallelRows,
                  [&](std::size_t begin, std::size_t end) {
                    for (std::size_t r = begin; r < end; ++r) {
                      ops.dequantize_u8(out.row(r), q.row(r), q.scales[r],
                                        q.zero_points[r], q.cols);
                    }
                  });
}

void quantized_linear_forward(const QuantizedTensor& x,
                              const QuantizedLinear& layer, const Matrix& bias,
                              Matrix& out, bool relu) {
  GCNT_KERNEL_SCOPE("qgemm");
  if (x.cols != layer.in) {
    throw std::invalid_argument("quantized_linear_forward: dimension mismatch");
  }
  if (bias.rows() != 1 || bias.cols() != layer.out) {
    throw std::invalid_argument("quantized_linear_forward: bias shape");
  }
  out.resize(x.rows, layer.out);
  const SimdOps& ops = simd_ops();
  const float* bias_row = bias.row(0);
  const std::size_t in = layer.in;
  const std::size_t cols = layer.out;
  parallel_blocks(
      x.rows, kMinParallelRows, [&](std::size_t begin, std::size_t end) {
        const float* wscales = layer.scales.data();
        for (std::size_t r = begin; r < end; ++r) {
          const std::uint8_t* xrow = x.row(r);
          float* orow = out.row(r);
          const float xscale = x.scales[r];
          const std::int64_t zp = x.zero_points[r];
          for (std::size_t j = 0; j < cols; ++j) {
            // Exact int32 product sum, then the asymmetric zero-point
            // correction in int64 (|zp * col_sum| can exceed int32 for
            // the largest permitted layer widths).
            const std::int64_t acc = ops.dot_u8s8(xrow, layer.row(j), in);
            const std::int64_t corrected =
                acc - zp * static_cast<std::int64_t>(layer.col_sums[j]);
            const float v = std::fmaf(static_cast<float>(corrected),
                                      xscale * wscales[j], bias_row[j]);
            orow[j] = relu ? (v > 0.0f ? v : 0.0f) : v;
          }
        }
      });
}

void spmm_q8(const CsrMatrix& a, const QuantizedTensor& q, Matrix& out,
             float alpha) {
  GCNT_KERNEL_SCOPE("spmm_q8");
  if (q.rows != a.cols()) {
    throw std::invalid_argument("spmm_q8: dimension mismatch");
  }
  const std::size_t n = q.cols;
  // Unlike CsrMatrix::spmm there is no whole-matrix prefill: every row
  // is zeroed immediately before its k-loop below, so the output is
  // initialized while cache-hot instead of in a separate streaming pass
  // (which the first accumulation would then re-read from last-level
  // cache). Same values in the same order — zeros then ascending-k adds —
  // so results are bit-identical to a prefilled walk.
  out.resize_for_overwrite(a.rows(), n);
  // Mirrors CsrMatrix::spmm's row-block walk with the dense operand
  // streamed as u8 codes through the dequantizing axpy — same ascending-k
  // per-element order, so the bitwise guarantee across thread counts
  // carries over. The per-nonzero zero-point shift folds into the axpy
  // (each lane computes (code - zp) before the fma), so no row-sum
  // correction pass is needed.
  const SimdOps& ops = simd_ops();
  const std::uint32_t* row_ptr = a.row_ptr().data();
  const std::uint32_t* col_index = a.col_index().data();
  const float* values = a.values().data();
  const float* scales = q.scales.data();
  const std::int32_t* zps = q.zero_points.data();
  parallel_blocks(
      a.rows(), kMinParallelRows,
      [&](std::size_t row_begin, std::size_t row_end) {
        const std::uint32_t k_end = row_ptr[row_end];
        for (std::size_t r = row_begin; r < row_end; ++r) {
          float* orow = out.row(r);
          std::memset(orow, 0, n * sizeof(float));
          for (std::uint32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
            const std::uint32_t col = col_index[k];
            GCNT_DEBUG_ASSERT(col < a.cols(),
                              "spmm_q8: column index out of range");
            // Gathered code rows are a cache line or two and land on
            // cold lines (neighbor ids are scattered), so start the next
            // gather before draining this one.
            if (k + 1 < k_end) __builtin_prefetch(q.row(col_index[k + 1]));
            // The gathered row's scale folds into the axpy coefficient
            // and its zero point shifts per lane, so per-row quantization
            // costs two scalar loads per nonzero.
            const float av = alpha * values[k] * scales[col];
            ops.axpy_dq8(orow, q.row(col), av, zps[col], n);
          }
        }
      });
}

void axpy_exact(Matrix& y, float a, const Matrix& x) {
  if (y.rows() != x.rows() || y.cols() != x.cols()) {
    throw std::invalid_argument("axpy_exact: shape mismatch");
  }
  float* yd = y.data();
  const float* xd = x.data();
  parallel_blocks(y.size(), kMinParallelElems,
                  [&](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      yd[i] = std::fmaf(a, xd[i], yd[i]);
                    }
                  });
}

}  // namespace gcnt
