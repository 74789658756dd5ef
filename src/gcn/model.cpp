#include "gcn/model.h"

#include <stdexcept>
#include <string>

#include "common/error.h"
#include "common/stats.h"
#include "common/trace.h"

namespace gcnt {

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

void GcnModel::install_quantized(std::vector<QuantizedLinear> encoders,
                                 std::vector<QuantizedLinear> fc) {
  if (encoders.size() != encoders_.size() || fc.size() != fc_.size()) {
    throw Error(ErrorKind::kCorrupt,
                "install_quantized: layer count mismatch");
  }
  for (std::size_t d = 0; d < encoders.size(); ++d) {
    if (encoders[d].in != encoders_[d].in_features() ||
        encoders[d].out != encoders_[d].out_features()) {
      throw Error(ErrorKind::kCorrupt,
                  "install_quantized: encoder " + std::to_string(d) +
                      " shape mismatch");
    }
  }
  for (std::size_t i = 0; i < fc.size(); ++i) {
    if (fc[i].in != fc_[i].in_features() || fc[i].out != fc_[i].out_features()) {
      throw Error(ErrorKind::kCorrupt, "install_quantized: fc layer " +
                                           std::to_string(i) +
                                           " shape mismatch");
    }
  }
  qencoders_ = std::move(encoders);
  qfc_ = std::move(fc);
  precision_ = Precision::kInt8;
  static Gauge& gauge = StatsRegistry::instance().gauge("model.precision");
  gauge.set(static_cast<std::int64_t>(precision_));
}

void GcnModel::layer_step(std::size_t d, const CsrMatrix& pred,
                          const CsrMatrix& succ, const Matrix& in,
                          const std::vector<std::uint32_t>* rows,
                          Precision precision, ForwardWorkspace& ws,
                          Matrix& out) const {
  // The int8 tier quantizes the activation once for both SpMMs; the
  // identity term reuses the exact fp32 rows, so only the neighbor sums
  // flow through codes (one activation round-trip per layer).
  const bool int8 = rows == nullptr && precision == Precision::kInt8;
  if (int8) {
    quantize_tensor(in, ws.qact);
    spmm_q8(pred, ws.qact, ws.pred_sum);
    spmm_q8(succ, ws.qact, ws.succ_sum);
  } else if (rows == nullptr) {
    pred.spmm(in, ws.pred_sum);
    succ.spmm(in, ws.succ_sum);
  } else {
    pred.spmm_rows(*rows, in, ws.pred_sum);
    succ.spmm_rows(*rows, in, ws.succ_sum);
  }
  if (rows == nullptr) {
    ws.aggregated.copy_from(in);
  } else {
    gather_rows(in, *rows, ws.aggregated);
  }

  if (int8) {
    // axpy_exact, not Matrix::axpy: the SimdOps axpy contracts to FMA
    // only on the vector targets, which would break the int8 tier's
    // cross-target bit-identity (quant.h file comment).
    axpy_exact(ws.aggregated, w_pr(), ws.pred_sum);
    axpy_exact(ws.aggregated, w_su(), ws.succ_sum);
    quantize_tensor(ws.aggregated, ws.qagg);
    quantized_linear_forward(ws.qagg, qencoders_[d], encoders_[d].bias.value,
                             out, /*relu=*/true);
  } else {
    ws.aggregated.axpy(w_pr(), ws.pred_sum);
    ws.aggregated.axpy(w_su(), ws.succ_sum);
    // Encoding: E = ReLU(G * W + b), fused into one output pass.
    encoders_[d].forward_relu(ws.aggregated, out);
  }
}

void GcnModel::fc_head(const Matrix& in, Precision precision,
                       ForwardWorkspace& ws, Matrix& out,
                       std::vector<Matrix>* inputs) const {
  if (inputs) inputs->resize(fc_.size());
  const Matrix* x = &in;
  for (std::size_t i = 0; i < fc_.size(); ++i) {
    const bool hidden = i + 1 < fc_.size();
    Matrix& y = hidden ? (i % 2 == 0 ? ws.pred_sum : ws.succ_sum) : out;
    if (inputs) (*inputs)[i].copy_from(*x);
    if (precision == Precision::kInt8) {
      quantize_tensor(*x, ws.qact);
      quantized_linear_forward(ws.qact, qfc_[i], fc_[i].bias.value, y,
                               /*relu=*/hidden);
    } else if (hidden) {
      fc_[i].forward_relu(*x, y);
    } else {
      fc_[i].forward(*x, y);
    }
    x = &y;
  }
}

void GcnModel::run_forward(const GraphTensors& graph, Cache* cache,
                           std::vector<Matrix>* embeddings,
                           ForwardWorkspace& ws, Matrix& out) const {
  // Caching forwards feed fp32-only consumers (backward(), the
  // incremental engine's dirty-row steps), so only plain inference takes
  // the int8 tier.
  if (cache) embeddings = &cache->embeddings;
  const Precision precision = embeddings ? Precision::kFp32 : precision_;
  const char* infer_span =
      precision == Precision::kInt8 ? "gcn.infer_int8" : "gcn.infer";
  TraceSpan span(cache ? "gcn.forward" : infer_span);
  span.arg("nodes", static_cast<double>(graph.node_count()));
  if (precision == Precision::kInt8 &&
      (qencoders_.size() != encoders_.size() || qfc_.size() != fc_.size())) {
    throw Error(ErrorKind::kInternal,
                "GcnModel: quantized snapshots not calibrated");
  }

  // Ping-pong the activations through the workspace: after one warm-up
  // pass per graph, the whole forward allocates nothing. All internal
  // activations live in compute (possibly reordered) row order; only the
  // gather here and the scatter of the logits touch the permutation.
  Matrix* emb = &ws.ping;
  Matrix* alt = &ws.pong;
  gather_compute_rows(graph, graph.features, *emb);
  if (embeddings) {
    embeddings->resize(encoders_.size() + 1);
    (*embeddings)[0].copy_from(*emb);
  }
  if (cache) {
    cache->aggregated.resize(encoders_.size());
    cache->pred_sums.resize(encoders_.size());
    cache->succ_sums.resize(encoders_.size());
  }
  for (std::size_t d = 0; d < encoders_.size(); ++d) {
    layer_step(d, graph.pred, graph.succ, *emb, nullptr, precision, ws, *alt);
    if (embeddings) (*embeddings)[d + 1].copy_from(*alt);
    if (cache) {
      cache->pred_sums[d].copy_from(ws.pred_sum);
      cache->succ_sums[d].copy_from(ws.succ_sum);
      cache->aggregated[d].copy_from(ws.aggregated);
    }
    std::swap(emb, alt);
  }

  std::vector<Matrix>* fc_inputs = cache ? &cache->fc_inputs : nullptr;
  if (graph.reordered()) {
    fc_head(*emb, precision, ws, *alt, fc_inputs);
    scatter_compute_rows(graph, *alt, out);
  } else {
    fc_head(*emb, precision, ws, out, fc_inputs);
  }
}

Matrix GcnModel::forward(const GraphTensors& graph) {
  Matrix out;
  run_forward(graph, &cache_, nullptr, ws_, out);
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
  if (cache_.fc_inputs.size() != fc_.size()) {
    throw std::logic_error("GcnModel::backward without matching forward");
  }
  // FC head, in reverse. Cached activations are in compute row order, so
  // the incoming node-order logit gradients gather through the
  // permutation first (identity copy when not reordered).
  Matrix grad;
  gather_compute_rows(graph, dlogits, grad);
  for (std::size_t i = fc_.size(); i-- > 0;) {
    Matrix dinput;
    fc_[i].backward(cache_.fc_inputs[i], grad, dinput);
    if (i > 0) {
      // Undo the ReLU of hidden layer i-1, whose output is fc_inputs[i].
      Matrix masked;
      Relu::backward(cache_.fc_inputs[i], dinput, masked);
      grad = std::move(masked);
    } else {
      grad = std::move(dinput);
    }
  }

  // Aggregation/encoder stack, in reverse. `grad` is now dE_D.
  const float wp = w_pr();
  const float ws = w_su();
  for (std::size_t d = encoders_.size(); d-- > 0;) {
    // E_d = ReLU(Z), Z = G_d * W_d + b.
    Matrix dz;
    Relu::backward(cache_.embeddings[d + 1], grad, dz);
    Matrix dg;
    encoders_[d].backward(cache_.aggregated[d], dz, dg);

    // dw_pr += sum((P*E_{d-1}) .* dG); same for w_su. With tied weights
    // both contributions flow into the single shared scalar.
    w_pr_.grad.at(0, 0) += cache_.pred_sums[d].dot(dg);
    if (config_.tied_aggregation) {
      w_pr_.grad.at(0, 0) += cache_.succ_sums[d].dot(dg);
    } else {
      w_su_.grad.at(0, 0) += cache_.succ_sums[d].dot(dg);
    }

    // dE_{d-1} = dG + w_pr * P^T * dG + w_su * S^T * dG.
    Matrix dprev = dg;
    graph.pred_t.spmm(dg, dprev, wp, 1.0f);
    graph.succ_t.spmm(dg, dprev, ws, 1.0f);
    grad = std::move(dprev);
  }
}

std::vector<float> GcnModel::predict_positive_probability(
    const GraphTensors& graph) const {
  const Matrix probabilities = softmax(infer(graph));
  std::vector<float> positive(probabilities.rows());
  for (std::size_t r = 0; r < probabilities.rows(); ++r) {
    positive[r] = probabilities.at(r, 1);
  }
  return positive;
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
