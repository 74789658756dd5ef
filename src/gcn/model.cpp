#include "gcn/model.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/error.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/trace.h"
#include "tensor/simd/simd.h"

namespace gcnt {

namespace {
// Below this many rows a layer step or FC head runs on the calling
// thread: the pool dispatch would cost more than the rows.
constexpr std::size_t kMinParallelRows = 64;
}  // namespace

GcnModel::GcnModel(const GcnConfig& config)
    : config_(config), w_pr_(1, 1), w_su_(1, 1) {
  if (config_.depth < 1 ||
      static_cast<std::size_t>(config_.depth) > config_.embed_dims.size()) {
    throw std::invalid_argument("GcnModel: depth out of range");
  }
  Rng rng(config_.seed);
  w_pr_.value.at(0, 0) = config_.initial_w_pr;
  w_su_.value.at(0, 0) =
      config_.tied_aggregation ? config_.initial_w_pr : config_.initial_w_su;

  std::size_t in_dim = kNodeFeatureDim;
  for (int d = 0; d < config_.depth; ++d) {
    const std::size_t out_dim = config_.embed_dims[static_cast<std::size_t>(d)];
    encoders_.emplace_back(in_dim, out_dim, rng);
    in_dim = out_dim;
  }
  for (std::size_t dim : config_.fc_dims) {
    fc_.emplace_back(in_dim, dim, rng);
    in_dim = dim;
  }
  fc_.emplace_back(in_dim, config_.num_classes, rng);
}

void GcnModel::set_precision(Precision precision) {
  if (precision == Precision::kInt8) {
    // (Re-)calibrate from the current fp32 weights. Training does not
    // refresh the snapshots automatically — call again after a training
    // run to re-calibrate.
    qencoders_.clear();
    qfc_.clear();
    qencoders_.reserve(encoders_.size());
    qfc_.reserve(fc_.size());
    for (const Linear& layer : encoders_) {
      qencoders_.push_back(quantize_linear(layer));
    }
    for (const Linear& layer : fc_) qfc_.push_back(quantize_linear(layer));
  }
  precision_ = precision;
  static Gauge& gauge = StatsRegistry::instance().gauge("model.precision");
  gauge.set(static_cast<std::int64_t>(precision_));
}

void GcnModel::layer_step(std::size_t d, const CsrMatrix& pred,
                          const CsrMatrix& succ, const Matrix& in,
                          const std::vector<std::uint32_t>* rows,
                          Precision precision, ForwardWorkspace& ws,
                          Matrix& out, LayerSums* keep,
                          bool through_head) const {
  TraceSpan span("gcn.layer");
  if (&out == &in) throw std::invalid_argument("layer_step: out aliases in");
  if (in.rows() != pred.cols() || in.rows() != succ.cols() ||
      pred.rows() != succ.rows()) {
    throw std::invalid_argument("layer_step: dimension mismatch");
  }
  const std::size_t n = rows ? rows->size() : pred.rows();
  std::size_t nnz = pred.nnz() + succ.nnz();
  if (rows) {
    nnz = 0;
    for (const std::uint32_t r : *rows) {
      if (r >= pred.rows()) {
        throw std::out_of_range("layer_step: row id out of range");
      }
      nnz += pred.row_ptr()[r + 1] - pred.row_ptr()[r] +
             succ.row_ptr()[r + 1] - succ.row_ptr()[r];
    }
  }
  span.arg("rows", static_cast<double>(n));
  span.arg("nnz", static_cast<double>(nnz));
  if (through_head) {
    if (d + 1 != encoders_.size() ||
        (rows == nullptr && precision == Precision::kInt8)) {
      throw std::invalid_argument(
          "layer_step: only the last fp32 layer runs through the FC head");
    }
    span.arg("fc_head", 1.0);
  }

  if (rows == nullptr && precision == Precision::kInt8) {
    // The int8 tier quantizes the activation once for both SpMMs; the
    // identity term reuses the exact fp32 rows, so only the neighbor sums
    // flow through codes (one activation round-trip per layer).
    // axpy_exact, not Matrix::axpy: the SimdOps axpy contracts to FMA
    // only on the vector targets, which would break the int8 tier's
    // cross-target bit-identity (quant.h file comment).
    quantize_tensor(in, ws.qact);
    spmm_q8(pred, ws.qact, ws.pred_sum);
    spmm_q8(succ, ws.qact, ws.succ_sum);
    ws.aggregated.copy_from(in);
    axpy_exact(ws.aggregated, w_pr(), ws.pred_sum);
    axpy_exact(ws.aggregated, w_su(), ws.succ_sum);
    quantize_tensor(ws.aggregated, ws.qagg);
    quantized_linear_forward(ws.qagg, qencoders_[d], encoders_[d].bias.value,
                             out, /*relu=*/true);
    return;
  }

  const Linear& encoder = encoders_[d];
  const std::size_t k = in.cols();
  if (k != encoder.in_features()) {
    throw std::invalid_argument("layer_step: input width mismatch");
  }
  const std::size_t width = encoder.out_features();
  out.resize_for_overwrite(n, through_head ? fc_.back().out_features()
                                           : width);
  if (keep) {
    keep->pred_sum.resize_for_overwrite(n, k);
    keep->succ_sum.resize_for_overwrite(n, k);
    keep->aggregated.resize_for_overwrite(n, k);
  }
  const BlockPlan plan = plan_blocks(n, kMinParallelRows);
  // Per block: kGemmRowBlock rows of G, then one row each of P*E and S*E.
  // Through the head, the encoded rows follow, and the FC chain's hidden
  // blocks reuse the space of G once it is encoded.
  std::size_t front = (kGemmRowBlock + 2) * k;
  if (through_head) front = std::max(front, fc_scratch_floats());
  ws.blocks.resize_for_overwrite(
      plan.count, front + (through_head ? kGemmRowBlock * width : 0));
  const SimdOps& ops = simd_ops();
  const float wp = w_pr();
  const float wsu = w_su();
  run_blocks(plan, [&](std::size_t block, std::size_t b0, std::size_t b1) {
    float* scratch = ws.blocks.row(block);
    for (std::size_t i0 = b0; i0 < b1; i0 += kGemmRowBlock) {
      const std::size_t count = std::min(kGemmRowBlock, b1 - i0);
      float* g = keep ? keep->aggregated.row(i0) : scratch;
      for (std::size_t i = i0; i < i0 + count; ++i) {
        // The unfused sequence, one row at a time: P*E and S*E from
        // zero, then G = E, G += w_pr * P*E, G += w_su * S*E.
        const std::size_t r = rows ? (*rows)[i] : i;
        float* ps = keep ? keep->pred_sum.row(i)
                         : scratch + kGemmRowBlock * k;
        float* ss = keep ? keep->succ_sum.row(i) : ps + k;
        float* gi = g + (i - i0) * k;
        std::fill(ps, ps + k, 0.0f);
        pred.accumulate_row(r, in, 1.0f, ops, ps);
        std::fill(ss, ss + k, 0.0f);
        succ.accumulate_row(r, in, 1.0f, ops, ss);
        std::copy(in.row(r), in.row(r) + k, gi);
        ops.axpy(gi, ps, wp, k);
        ops.axpy(gi, ss, wsu, k);
      }
      // Encoding: E = ReLU(G * W + b) for the whole block, into `out` or
      // into block scratch that the FC head reads.
      float* e = through_head ? scratch + front : out.row(i0);
      gemm_bias_act_rows(g, k, count, encoder.weight.value,
                         encoder.bias.value, /*relu=*/true, e, width);
      if (through_head) fc_rows(e, width, count, scratch, out.row(i0));
    }
  });
}

std::size_t GcnModel::fc_scratch_floats() const noexcept {
  std::size_t widest = 0;
  for (std::size_t i = 0; i + 1 < fc_.size(); ++i) {
    widest = std::max(widest, fc_[i].out_features());
  }
  return 2 * kGemmRowBlock * widest;
}

void GcnModel::fc_rows(const float* x, std::size_t ldx, std::size_t count,
                       float* scratch, float* logits,
                       std::vector<Matrix>* hidden_out,
                       std::size_t row) const {
  // Two hidden activation blocks, ping-ponged layer to layer (or, when
  // caching, the rows of the caller's hidden outputs instead).
  const std::size_t hidden_block = fc_scratch_floats() / 2;
  for (std::size_t i = 0; i < fc_.size(); ++i) {
    const bool hidden = i + 1 < fc_.size();
    const std::size_t width = fc_[i].out_features();
    float* y = !hidden      ? logits
               : hidden_out ? (*hidden_out)[i].row(row)
                            : scratch + (i % 2) * hidden_block;
    gemm_bias_act_rows(x, ldx, count, fc_[i].weight.value, fc_[i].bias.value,
                       /*relu=*/hidden, y, width);
    x = y;
    ldx = width;
  }
}

void GcnModel::fc_head(const Matrix& in, Precision precision,
                       ForwardWorkspace& ws, Matrix& out,
                       std::vector<Matrix>* hidden_out) const {
  TraceSpan span("gcn.fc_head");
  span.arg("rows", static_cast<double>(in.rows()));
  if (&out == &in) throw std::invalid_argument("fc_head: out aliases in");
  if (hidden_out) hidden_out->resize(fc_.size() - 1);
  if (precision == Precision::kInt8) {
    const Matrix* x = &in;
    for (std::size_t i = 0; i < fc_.size(); ++i) {
      const bool hidden = i + 1 < fc_.size();
      Matrix& y = hidden ? (i % 2 == 0 ? ws.pred_sum : ws.succ_sum) : out;
      if (hidden_out && i > 0) (*hidden_out)[i - 1].copy_from(*x);
      quantize_tensor(*x, ws.qact);
      quantized_linear_forward(ws.qact, qfc_[i], fc_[i].bias.value, y,
                               /*relu=*/hidden);
      x = &y;
    }
    return;
  }

  if (in.cols() != fc_.front().in_features()) {
    throw std::invalid_argument("fc_head: input width mismatch");
  }
  const std::size_t m = in.rows();
  out.resize_for_overwrite(m, fc_.back().out_features());
  if (hidden_out) {
    for (std::size_t i = 1; i < fc_.size(); ++i) {
      (*hidden_out)[i - 1].resize_for_overwrite(m, fc_[i].in_features());
    }
  }
  const BlockPlan plan = plan_blocks(m, kMinParallelRows);
  ws.blocks.resize_for_overwrite(plan.count, fc_scratch_floats());
  run_blocks(plan, [&](std::size_t block, std::size_t b0, std::size_t b1) {
    for (std::size_t i0 = b0; i0 < b1; i0 += kGemmRowBlock) {
      fc_rows(in.row(i0), in.cols(), std::min(kGemmRowBlock, b1 - i0),
              ws.blocks.row(block), out.row(i0), hidden_out, i0);
    }
  });
}

void GcnModel::run_forward(const GraphTensors& graph, TrainWorkspace* train,
                           std::vector<Matrix>* embeddings,
                           ForwardWorkspace& ws, Matrix& out) const {
  // Caching forwards feed fp32-only consumers (backward(), the
  // incremental engine's dirty-row steps), so only plain inference takes
  // the int8 tier.
  if (train) embeddings = &train->embeddings;
  const Precision precision = embeddings ? Precision::kFp32 : precision_;
  const char* infer_span =
      precision == Precision::kInt8 ? "gcn.infer_int8" : "gcn.infer";
  TraceSpan span(train ? "gcn.forward" : infer_span);
  span.arg("nodes", static_cast<double>(graph.node_count()));
  if (precision == Precision::kInt8 &&
      (qencoders_.size() != encoders_.size() || qfc_.size() != fc_.size())) {
    throw Error(ErrorKind::kInternal,
                "GcnModel: quantized snapshots not calibrated");
  }

  // E_d lives in the caller's matrix where it keeps layer d, else in the
  // workspace's ping-pong buffer of d's parity, so no step writes its own
  // input and, after one warm-up pass per graph, the forward allocates
  // nothing. Activations live in compute (possibly reordered) row order;
  // only the gather here and the scatter of the logits touch the
  // permutation. fp32 inference never stores E_D: the last layer step
  // runs each encoded row block on through the FC head. Training
  // (backward() reads E_D) and the int8 tier run fc_head over it.
  const bool fused = !train && precision == Precision::kFp32;
  const std::size_t depth = encoders_.size();
  if (embeddings) embeddings->resize(train ? depth + 1 : depth);
  if (train) train->layers.resize(depth);
  const auto act = [&](std::size_t d) -> Matrix& {
    if (embeddings && d < embeddings->size()) return (*embeddings)[d];
    return d % 2 == 0 ? ws.ping : ws.pong;
  };
  gather_compute_rows(graph, graph.features, act(0));
  for (std::size_t d = 0; d < depth; ++d) {
    const bool head = fused && d + 1 == depth;
    layer_step(d, graph.pred, graph.succ, act(d), nullptr, precision, ws,
               head && !graph.reordered() ? out : act(d + 1),
               train ? &train->layers[d] : nullptr, head);
  }

  // act(depth) holds E_D, or the compute-order logits when fused.
  Matrix* logits = &act(depth);
  if (!fused) {
    logits = graph.reordered() ? &act(depth + 1) : &out;
    fc_head(act(depth), precision, ws, *logits,
            train ? &train->fc_hidden : nullptr);
  }
  if (graph.reordered()) scatter_compute_rows(graph, *logits, out);
}

Matrix GcnModel::forward(const GraphTensors& graph) {
  Matrix out;
  run_forward(graph, &train_, nullptr, ws_, out);
  return out;
}

Matrix GcnModel::infer(const GraphTensors& graph) const {
  Matrix out;
  run_forward(graph, nullptr, nullptr, ws_, out);
  return out;
}

void GcnModel::infer(const GraphTensors& graph, ForwardWorkspace& ws,
                     Matrix& out, std::vector<Matrix>* embeddings) const {
  run_forward(graph, nullptr, embeddings, ws, out);
}

void GcnModel::backward(const GraphTensors& graph, const Matrix& dlogits) {
  TraceSpan span("gcn.backward");
  TrainWorkspace& tw = train_;
  if (tw.embeddings.size() != encoders_.size() + 1 ||
      tw.fc_hidden.size() + 1 != fc_.size()) {
    throw std::logic_error("GcnModel::backward without matching forward");
  }
  const std::size_t n = tw.embeddings.back().rows();
  if (dlogits.rows() != n || dlogits.cols() != fc_.back().out_features()) {
    throw std::invalid_argument("GcnModel::backward: dlogits shape mismatch");
  }
  // The row passes below index the cache through the graph's adjacency.
  const auto square_n = [n](const CsrMatrix& m) {
    return m.rows() == n && m.cols() == n;
  };
  if (graph.node_count() != n || !square_n(graph.pred) ||
      !square_n(graph.succ)) {
    throw std::invalid_argument(
        "GcnModel::backward: graph does not match the forward's");
  }
  span.arg("nodes", static_cast<double>(n));
  // Each step writes its input gradient into the ping-pong buffer the
  // step's own dy does not occupy.
  const auto other = [&tw](const Matrix* m) -> Matrix& {
    return m == &tw.ping ? tw.pong : tw.ping;
  };

  // FC head, in reverse. Cached activations are in compute row order, so
  // the incoming node-order logit gradients gather through the
  // permutation first.
  const Matrix* dy = &dlogits;
  if (graph.reordered()) {
    gather_compute_rows(graph, dlogits, tw.ping);
    dy = &tw.ping;
  }
  {
    TraceSpan head("gcn.backward.fc_head");
    head.arg("rows", static_cast<double>(n));
    for (std::size_t i = fc_.size(); i-- > 0;) {
      // Layer i's input is the ReLU output of hidden layer i-1, or for
      // i == 0 of the top encoder (E_D). Masking dx with it makes dy the
      // gradient of that layer's pre-activation.
      const Matrix& x = i > 0 ? tw.fc_hidden[i - 1] : tw.embeddings.back();
      Matrix& dx = other(dy);
      fc_[i].accumulate_grads(x, *dy);
      fc_[i].input_grad(*dy, dx, &x);
      dy = &dx;
    }
  }

  // Aggregation/encoder stack, in reverse. *dy is dZ_D (E_D = ReLU(Z_D),
  // Z_d = G_d * W_d + b).
  const float wp = w_pr();
  const float ws = w_su();
  if (encoders_.size() > 1) {
    graph.pred.transpose_into(tw.pred_t);
    graph.succ.transpose_into(tw.succ_t);
  }
  const SimdOps& ops = simd_ops();
  for (std::size_t d = encoders_.size(); d-- > 0;) {
    TraceSpan layer("gcn.backward.layer");
    layer.arg("rows", static_cast<double>(n));
    layer.arg("nnz", d > 0 ? static_cast<double>(tw.pred_t.nnz() +
                                                 tw.succ_t.nnz())
                           : 0.0);
    const LayerSums& sums = tw.layers[d];
    Matrix& dg = other(dy);
    encoders_[d].accumulate_grads(sums.aggregated, *dy);
    encoders_[d].input_grad(*dy, dg);

    // dw_pr += sum((P*E_{d-1}) .* dG); same for w_su: both dots in one
    // serial sweep, each in Matrix::dot's ascending double accumulation.
    // With tied weights both contributions flow into the single shared
    // scalar.
    const auto weight_dots = [&] {
      double pred_dot = 0.0;
      double succ_dot = 0.0;
      const float* pe = sums.pred_sum.data();
      const float* se = sums.succ_sum.data();
      const float* g = dg.data();
      for (std::size_t i = 0; i < dg.size(); ++i) {
        pred_dot += static_cast<double>(pe[i]) * g[i];
        succ_dot += static_cast<double>(se[i]) * g[i];
      }
      w_pr_.grad.at(0, 0) += static_cast<float>(pred_dot);
      Param& succ_weight = config_.tied_aggregation ? w_pr_ : w_su_;
      succ_weight.grad.at(0, 0) += static_cast<float>(succ_dot);
    };
    if (d == 0) {  // dE_0 would reach only the fixed features
      weight_dots();
      break;
    }

    // dZ_{d-1} = ReLU'(E_d) .* (dG + w_pr * P^T * dG + w_su * S^T * dG),
    // per row: the copy, then the P^T row, then the S^T row — the
    // spmm(beta = 1) sequence — then the mask of E_d.
    Matrix& dz = other(&dg);
    const std::size_t k = dg.cols();
    const Matrix& act = tw.embeddings[d];
    dz.resize_for_overwrite(n, k);
    const auto form_rows = [&](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        float* row = dz.row(r);
        std::copy(dg.row(r), dg.row(r) + k, row);
        tw.pred_t.accumulate_row(r, dg, wp, ops, row);
        tw.succ_t.accumulate_row(r, dg, ws, ops, row);
        relu_mask(act.row(r), row, k);
      }
    };
    // Both only read dG, so the serial dot sweep runs as one more
    // kernel-pool block beside the row blocks.
    const BlockPlan plan = plan_blocks(n, kMinParallelRows);
    if (plan.count == 1) {
      weight_dots();
      form_rows(0, n);
    } else {
      const BlockPlan tasks{plan.count + 1, plan.count + 1, 1};
      run_blocks(tasks, [&](std::size_t task, std::size_t, std::size_t) {
        if (task == plan.count) {
          weight_dots();
        } else {
          form_rows(plan.begin(task), plan.end(task));
        }
      });
    }
    dy = &dz;
  }
}

std::vector<float> GcnModel::predict_positive_probability(
    const GraphTensors& graph) const {
  return softmax_positive(infer(graph));
}

std::vector<Param*> GcnModel::params() {
  std::vector<Param*> all;
  if (!config_.frozen_aggregation) {
    all.push_back(&w_pr_);
    if (!config_.tied_aggregation) all.push_back(&w_su_);
  }
  for (Linear& layer : encoders_) {
    for (Param* p : layer.params()) all.push_back(p);
  }
  for (Linear& layer : fc_) {
    for (Param* p : layer.params()) all.push_back(p);
  }
  return all;
}

void GcnModel::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

std::vector<const Param*> GcnModel::params() const {
  std::vector<const Param*> all;
  if (!config_.frozen_aggregation) {
    all.push_back(&w_pr_);
    if (!config_.tied_aggregation) all.push_back(&w_su_);
  }
  for (const Linear& layer : encoders_) {
    all.push_back(&layer.weight);
    all.push_back(&layer.bias);
  }
  for (const Linear& layer : fc_) {
    all.push_back(&layer.weight);
    all.push_back(&layer.bias);
  }
  return all;
}

void GcnModel::copy_params_from(const GcnModel& other) {
  auto mine = params();
  auto theirs = other.params();
  if (mine.size() != theirs.size()) {
    throw std::invalid_argument("copy_params_from: config mismatch");
  }
  for (std::size_t i = 0; i < mine.size(); ++i) {
    mine[i]->value = theirs[i]->value;
  }
}

}  // namespace gcnt
