#pragma once
// End-to-end GCN training over multiple netlist graphs.
//
// Implements the paper's parallel training scheme (Section 3.4.2, Fig. 5):
// graphs cannot be split like image batches, so each training graph gets
// its own model replica ("device") and pool thread; replica gradients are
// averaged into the master model, which takes the optimizer step. The
// replica pool stays although each replica's passes already run on the
// kernel pool: training the graphs one after another on the kernel pool
// gave bit-identical weights but took longer (3 graphs x 40 epochs at 4k
// gates, 4 vCPUs: 1.45-1.70 s against 0.93-1.06 s).

#include <cstdint>
#include <string>
#include <vector>

#include "gcn/model.h"

namespace gcnt {

class Optimizer;
class Rng;

/// One training/evaluation unit: a graph and the rows the loss runs on
/// (e.g. a balanced subset). Labels come from GraphTensors::labels.
struct TrainGraph {
  const GraphTensors* graph = nullptr;
  std::vector<std::uint32_t> rows;  ///< empty = all rows
};

struct TrainerOptions {
  std::size_t epochs = 100;
  float learning_rate = 1e-2f;
  /// Loss weight on the positive (difficult-to-observe) class; stages of
  /// the multi-stage cascade raise this (Section 3.3).
  float positive_class_weight = 1.0f;
  bool use_adam = true;       ///< false = SGD with momentum (paper setup)
  float sgd_momentum = 0.9f;
  /// Record train/test accuracy every `eval_interval` epochs (1 = always).
  std::size_t eval_interval = 1;

  /// When non-empty, an atomic, checksummed checkpoint (model + optimizer
  /// state + RNG + epoch counter + history; see gcn/checkpoint.h) is
  /// written here at every `checkpoint_interval`-th epoch boundary, and
  /// resume() continues from it bit-exactly.
  std::string checkpoint_path;
  std::size_t checkpoint_interval = 1;
};

struct EpochRecord {
  std::size_t epoch = 0;
  double loss = 0.0;
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;  ///< 0 when no test graph supplied
};

class Trainer {
 public:
  Trainer(GcnModel& model, TrainerOptions options);

  /// Trains `model` in place; returns the per-epoch learning curve
  /// (Fig. 8 data). `test` may be nullptr.
  std::vector<EpochRecord> train(const std::vector<TrainGraph>& train_graphs,
                                 const TrainGraph* test);

  /// Continues an interrupted run from `options.checkpoint_path`: restores
  /// weights, optimizer state, RNG, and the epoch counter, then trains the
  /// remaining epochs. The final model is bitwise identical to an
  /// uninterrupted train() at any thread count (pinned by
  /// tests/robustness_test.cpp). Falls back to a fresh train() when no
  /// checkpoint exists yet (so `--resume` is safe to pass always); throws
  /// gcnt::Error — kUsage when checkpoint_path is empty or the checkpoint
  /// does not match the model/optimizer configuration, kCorrupt/kVersion
  /// for a damaged or incompatible file.
  std::vector<EpochRecord> resume(const std::vector<TrainGraph>& train_graphs,
                                  const TrainGraph* test);

  /// Accuracy of `model` on one graph restricted to `rows`.
  static double evaluate_accuracy(const GcnModel& model,
                                  const TrainGraph& data);

 private:
  /// Shared epoch loop: runs epochs [start_epoch, options.epochs) on top
  /// of `history`, checkpointing at each boundary when configured.
  std::vector<EpochRecord> run_epochs(
      const std::vector<TrainGraph>& train_graphs, const TrainGraph* test,
      std::size_t start_epoch, std::vector<EpochRecord> history,
      Optimizer& optimizer, Rng& rng);

  GcnModel* model_;
  TrainerOptions options_;
};

}  // namespace gcnt
