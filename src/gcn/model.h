#pragma once
// The paper's GCN (Section 3.2): D rounds of weighted-sum aggregation +
// dense encoding, followed by fully-connected classification layers.
//
//   G_d = E_{d-1} + w_pr * (P * E_{d-1}) + w_su * (S * E_{d-1})   (Eq. 1)
//   E_d = ReLU(G_d * W_d + b_d)
//   logits = FC(E_D)
//
// Forward and backward run whole-graph as sparse-dense matrix products
// (Eq. 3) — the "fast inference scheme" — and the same code path is the
// training forward pass. w_pr and w_su are trainable scalars shared across
// depths, exactly as in the paper.

#include <cstdint>
#include <vector>

#include "gcn/graph_tensors.h"
#include "gcn/quant.h"
#include "gcn/workspace.h"
#include "nn/layers.h"
#include "nn/loss.h"

namespace gcnt {

struct GcnConfig {
  int depth = 3;  ///< search depth D (1..embed_dims.size())
  /// K_d embedding dimensions; the paper uses (32, 64, 128).
  std::vector<std::size_t> embed_dims = {32, 64, 128};
  /// Hidden FC dimensions; the paper uses (64, 64, 128) before the
  /// 2-class output layer.
  std::vector<std::size_t> fc_dims = {64, 64, 128};
  std::size_t num_classes = 2;
  std::uint64_t seed = 1234;

  /// Ablation switches for the Eq. 1 aggregation weights.
  /// tied: one shared scalar drives both predecessor and successor sums.
  bool tied_aggregation = false;
  /// frozen: weights stay at their initial values (not trained). With
  /// initial weights 0 the model degenerates to an MLP on node features.
  bool frozen_aggregation = false;
  float initial_w_pr = 0.5f;
  float initial_w_su = 0.5f;
};

class GcnModel {
 public:
  explicit GcnModel(const GcnConfig& config);

  const GcnConfig& config() const noexcept { return config_; }

  /// Whole-graph forward pass; returns N x num_classes logits and caches
  /// activations for backward().
  Matrix forward(const GraphTensors& graph);

  /// Accumulates parameter gradients from d(loss)/d(logits). Must follow a
  /// forward() on the same graph. Row-block passes on the kernel pool in
  /// the train workspace (gcn/workspace.h). Every gradient equals, bit for
  /// bit, whole-matrix Linear::backward and Relu::backward passes, P^T and
  /// S^T SpMMs and Matrix::dot composed layer by layer, for any thread
  /// count (tests/gcn_backward_test.cpp).
  void backward(const GraphTensors& graph, const Matrix& dlogits);

  /// The forward cache and backward buffers of forward()/backward().
  TrainWorkspace& train_workspace() noexcept { return train_; }

  /// Inference-only forward (no caching); cheaper on big graphs.
  Matrix infer(const GraphTensors& graph) const;

  /// Zero-allocation inference: writes logits into `out` using the
  /// caller's workspace. After one warm-up call per graph, steady-state
  /// calls perform no heap allocations (see gcn/workspace.h). Use
  /// distinct workspaces for concurrent callers. A non-null `embeddings`
  /// also receives E_0..E_D in compute row order (the incremental
  /// engine's cache); such a caching forward always runs fp32.
  /// Without `embeddings`, an fp32 forward never stores E_D: the last
  /// layer step runs each encoded row block on through the FC head, so
  /// the graph-sized buffers are E_{D-2} and E_{D-1} in ws.ping / ws.pong
  /// (4 * (K_{D-2} + K_{D-1}) bytes per node, 384 with the paper's dims)
  /// and the N x num_classes logits. A caching forward, or the int8 tier,
  /// also holds E_D (another 4 * K_D bytes per node).
  void infer(const GraphTensors& graph, ForwardWorkspace& ws, Matrix& out,
             std::vector<Matrix>* embeddings = nullptr) const;

  /// The Eq. 1 layer step of encoder d, the one place a GCN layer is
  /// computed:  G = E + w_pr*(P*E) + w_su*(S*E);  out = ReLU(G*W_d + b_d).
  /// `rows` null: every row of pred/succ; `rows` non-null: only those rows
  /// (ids into `in`), into a compact rows->size()-row `out`.
  /// fp32 (always, with a row list): one pass over kGemmRowBlock-row
  /// blocks across the kernel pool. Per row, P*E and S*E accumulate with
  /// CsrMatrix::accumulate_row and G forms in block scratch
  /// (ws.blocks); each block is then encoded by gemm_bias_act_rows
  /// straight into `out`. Every output row is bitwise the row of the
  /// unfused spmm / copy / axpy / gemm_bias_act sequence, for any thread
  /// count and row list. A non-null `keep` (fp32 only) also receives the
  /// graph-sized P*E, S*E and G for backward. `through_head` (fp32, last
  /// layer only) sends each encoded block on through the FC head's block
  /// chain in ws.blocks instead of into `out`, which then receives the
  /// logits, bitwise those of fc_head over the unfused step's output.
  /// kInt8 (all rows only): quantize_tensor / spmm_q8 / axpy_exact /
  /// quantized_linear_forward through ws.pred_sum / succ_sum / aggregated.
  /// `out` must not be `in` and `through_head` needs d == D-1 and fp32
  /// (std::invalid_argument); a row id past pred/succ throws
  /// std::out_of_range.
  void layer_step(std::size_t d, const CsrMatrix& pred, const CsrMatrix& succ,
                  const Matrix& in, const std::vector<std::uint32_t>* rows,
                  Precision precision, ForwardWorkspace& ws, Matrix& out,
                  LayerSums* keep = nullptr, bool through_head = false) const;

  /// FC head over every row of `in`, writing the raw logits into `out`
  /// (which must not be `in`). fp32: all FC layers run per
  /// kGemmRowBlock-row block with the hidden activations in ws.blocks,
  /// so only the logits reach memory; a non-null `hidden_out` receives
  /// each hidden FC layer's output — the input of FC layers 1.., the
  /// training cache (layer 0's input is `in`) — written there directly.
  /// kInt8: layer by layer, ping-ponging through ws.pred_sum /
  /// ws.succ_sum.
  void fc_head(const Matrix& in, Precision precision, ForwardWorkspace& ws,
               Matrix& out, std::vector<Matrix>* hidden_out = nullptr) const;

  /// Positive-class probability per node.
  std::vector<float> predict_positive_probability(const GraphTensors& graph) const;

  /// All trainable parameters in a stable order.
  std::vector<Param*> params();
  std::vector<const Param*> params() const;

  void zero_grad();

  /// Copies parameter values (not gradients) from another model with the
  /// same configuration — used by the data-parallel trainer replicas.
  void copy_params_from(const GcnModel& other);

  float w_pr() const noexcept { return w_pr_.value.at(0, 0); }
  float w_su() const noexcept {
    return config_.tied_aggregation ? w_pr() : w_su_.value.at(0, 0);
  }

  /// Layer access for alternative inference engines (e.g. the per-node
  /// recursive baseline of Fig. 10).
  const std::vector<Linear>& encoders() const noexcept { return encoders_; }
  const std::vector<Linear>& fc_layers() const noexcept { return fc_; }

  /// Selects the inference precision tier (see gcn/quant.h). Selecting
  /// kInt8 calibrates per-column symmetric int8 weight snapshots from the
  /// current fp32 weights; call again after further training to
  /// re-calibrate. Only the no-cache inference path switches — training
  /// forward/backward always run fp32. kFp32 (the default) keeps every
  /// existing output bitwise unchanged. The tier is not persisted:
  /// save_model writes the fp32 weights whatever the precision.
  void set_precision(Precision precision);
  Precision precision() const noexcept { return precision_; }

 private:
  /// Shared whole-graph forward; fills `train` (training) or `embeddings`
  /// when non-null. Scratch lives in `ws`, node-order logits land in `out`.
  void run_forward(const GraphTensors& graph, TrainWorkspace* train,
                   std::vector<Matrix>* embeddings, ForwardWorkspace& ws,
                   Matrix& out) const;

  /// Floats of block scratch the FC chain needs: two kGemmRowBlock-row
  /// blocks of the widest hidden FC layer.
  std::size_t fc_scratch_floats() const noexcept;

  /// The FC chain over one block of `count` <= kGemmRowBlock rows of `x`
  /// (row stride `ldx`): hidden activations ping-pong through `scratch`,
  /// or land in rows `row`.. of *hidden_out when caching; the logits go
  /// to `logits` (row stride num_classes). fc_head and the fused last
  /// layer step both run it.
  void fc_rows(const float* x, std::size_t ldx, std::size_t count,
               float* scratch, float* logits,
               std::vector<Matrix>* hidden_out = nullptr,
               std::size_t row = 0) const;

  GcnConfig config_;
  Param w_pr_;
  Param w_su_;
  std::vector<Linear> encoders_;  ///< 4 -> K1 -> ... -> KD
  std::vector<Linear> fc_;        ///< KD -> fc_dims... -> num_classes
  Precision precision_ = Precision::kFp32;
  std::vector<QuantizedLinear> qencoders_;  ///< int8 snapshots of encoders_
  std::vector<QuantizedLinear> qfc_;        ///< int8 snapshots of fc_

  TrainWorkspace train_;
  /// Scratch for forward()/infer(graph); mutable so const inference can
  /// reuse it. Makes those entry points non-thread-safe per model — use
  /// the explicit-workspace infer overload for concurrent callers.
  mutable ForwardWorkspace ws_;
};

}  // namespace gcnt
