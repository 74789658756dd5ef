#include "gcn/trainer.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/error.h"
#include "common/fault_inject.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "gcn/checkpoint.h"
#include "gcn/serialize.h"
#include "nn/optimizer.h"

namespace gcnt {

namespace {

std::vector<std::int32_t> argmax_rows(const Matrix& logits) {
  std::vector<std::int32_t> out(logits.rows(), 0);
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* row = logits.row(r);
    std::int32_t best = 0;
    for (std::size_t c = 1; c < logits.cols(); ++c) {
      if (row[c] > row[best]) best = static_cast<std::int32_t>(c);
    }
    out[r] = best;
  }
  return out;
}

void validate_graphs(const std::vector<TrainGraph>& train_graphs) {
  if (train_graphs.empty()) {
    throw std::invalid_argument("Trainer::train: no training graphs");
  }
  for (const TrainGraph& tg : train_graphs) {
    if (tg.graph == nullptr || tg.graph->labels.empty()) {
      throw std::invalid_argument("Trainer::train: unlabeled graph");
    }
  }
}

std::unique_ptr<Optimizer> make_optimizer(const TrainerOptions& options) {
  if (options.use_adam) {
    return std::make_unique<AdamOptimizer>(options.learning_rate);
  }
  return std::make_unique<SgdOptimizer>(options.learning_rate,
                                        options.sgd_momentum);
}

/// Trainer RNG stream, derived from the model seed so distinct
/// configurations draw independently.
Rng make_trainer_rng(const GcnConfig& config) {
  return Rng(config.seed ^ 0x7261696e65724aULL);
}

}  // namespace

Trainer::Trainer(GcnModel& model, TrainerOptions options)
    : model_(&model), options_(std::move(options)) {}

double Trainer::evaluate_accuracy(const GcnModel& model,
                                  const TrainGraph& data) {
  const Matrix logits = model.infer(*data.graph);
  const auto predictions = argmax_rows(logits);
  const auto cm = evaluate_binary(predictions, data.graph->labels,
                                  data.rows.empty() ? nullptr : &data.rows);
  return cm.accuracy();
}

std::vector<EpochRecord> Trainer::train(
    const std::vector<TrainGraph>& train_graphs, const TrainGraph* test) {
  validate_graphs(train_graphs);
  const auto optimizer = make_optimizer(options_);
  Rng rng = make_trainer_rng(model_->config());
  return run_epochs(train_graphs, test, 0, {}, *optimizer, rng);
}

std::vector<EpochRecord> Trainer::resume(
    const std::vector<TrainGraph>& train_graphs, const TrainGraph* test) {
  if (options_.checkpoint_path.empty()) {
    throw Error(ErrorKind::kUsage,
                "Trainer::resume: no checkpoint_path configured");
  }
  if (!checkpoint_exists(options_.checkpoint_path)) {
    // Nothing was persisted before the interruption (or this is the first
    // run): a fresh start is the correct continuation.
    return train(train_graphs, test);
  }
  validate_graphs(train_graphs);
  TrainCheckpoint checkpoint = load_checkpoint_file(options_.checkpoint_path);

  // Restore weights. The checkpointed architecture must match the model
  // this Trainer was constructed with.
  std::istringstream model_payload(checkpoint.model_text);
  const GcnModel restored = load_model(model_payload);
  const auto expected = model_->params();
  const auto stored = restored.params();
  if (expected.size() != stored.size()) {
    throw Error(ErrorKind::kUsage,
                "Trainer::resume: checkpoint architecture does not match "
                "the configured model");
  }
  for (std::size_t p = 0; p < expected.size(); ++p) {
    if (expected[p]->value.rows() != stored[p]->value.rows() ||
        expected[p]->value.cols() != stored[p]->value.cols()) {
      throw Error(ErrorKind::kUsage,
                  "Trainer::resume: checkpoint parameter shapes do not "
                  "match the configured model");
    }
  }
  model_->copy_params_from(restored);
  model_->zero_grad();

  const auto optimizer = make_optimizer(options_);
  if (checkpoint.optimizer_kind != optimizer->kind()) {
    throw Error(ErrorKind::kUsage,
                "Trainer::resume: checkpoint was written with optimizer '" +
                    checkpoint.optimizer_kind + "', options select '" +
                    optimizer->kind() + "'");
  }
  optimizer->ensure_state(model_->params());
  const auto state = optimizer->state_matrices();
  if (state.size() != checkpoint.optimizer_state.size()) {
    throw Error(ErrorKind::kCorrupt,
                "Trainer::resume: optimizer state count mismatch");
  }
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (state[i]->rows() != checkpoint.optimizer_state[i].rows() ||
        state[i]->cols() != checkpoint.optimizer_state[i].cols()) {
      throw Error(ErrorKind::kCorrupt,
                  "Trainer::resume: optimizer state shape mismatch");
    }
    *state[i] = std::move(checkpoint.optimizer_state[i]);
  }
  optimizer->set_step_count(checkpoint.optimizer_step_count);

  Rng rng = make_trainer_rng(model_->config());
  rng.set_state(checkpoint.rng_state);

  static Counter& resumes_counter =
      StatsRegistry::instance().counter("train.resumes");
  resumes_counter.add();
  return run_epochs(train_graphs, test, checkpoint.next_epoch,
                    std::move(checkpoint.history), *optimizer, rng);
}

std::vector<EpochRecord> Trainer::run_epochs(
    const std::vector<TrainGraph>& train_graphs, const TrainGraph* test,
    std::size_t start_epoch, std::vector<EpochRecord> history,
    Optimizer& optimizer, Rng& rng) {
  const std::vector<float> class_weights{1.0f,
                                         options_.positive_class_weight};

  // One replica per training graph, mirroring the one-graph-per-GPU
  // scheme of Fig. 5.
  const std::size_t graph_count = train_graphs.size();
  std::vector<GcnModel> replicas(graph_count, *model_);
  ThreadPool pool(graph_count);

  const auto master_params = model_->params();
  history.reserve(options_.epochs);

  static Counter& epochs_counter =
      StatsRegistry::instance().counter("train.epochs");
  static Counter& checkpoints_counter =
      StatsRegistry::instance().counter("train.checkpoints");
  for (std::size_t epoch = start_epoch; epoch < options_.epochs; ++epoch) {
    TraceSpan epoch_span("train.epoch");
    epoch_span.arg("epoch", static_cast<double>(epoch));
    epoch_span.arg("graphs", static_cast<double>(train_graphs.size()));
    epochs_counter.add();
    // Epoch-boundary probes: a fault sweep can exhaust "resources" here
    // and assert that resume() recovers the run.
    fault_alloc_probe("trainer epoch");
    // Advance the trainer stream once per epoch so its checkpointed state
    // genuinely reflects progress (future stochastic schedules draw here).
    (void)rng();
    std::vector<double> losses(graph_count, 0.0);

    for (GcnModel& replica : replicas) {
      replica.copy_params_from(*model_);
      replica.zero_grad();
    }
    pool.parallel_for(graph_count, [&](std::size_t k) {
      const TrainGraph& tg = train_graphs[k];
      GcnModel& replica = replicas[k];
      const Matrix logits = replica.forward(*tg.graph);
      Matrix dlogits;
      losses[k] = softmax_cross_entropy(
          logits, tg.graph->labels, class_weights,
          tg.rows.empty() ? nullptr : &tg.rows, dlogits);
      replica.backward(*tg.graph, dlogits);
    });
    // Gather: average replica gradients into the master, then step.
    const float scale = 1.0f / static_cast<float>(graph_count);
    for (const GcnModel& replica : replicas) {
      const auto replica_params = replica.params();
      for (std::size_t p = 0; p < master_params.size(); ++p) {
        master_params[p]->grad.axpy(scale, replica_params[p]->grad);
      }
    }
    optimizer.step(master_params);

    EpochRecord record;
    record.epoch = epoch;
    for (double l : losses) record.loss += l;
    record.loss /= static_cast<double>(train_graphs.size());
    if (epoch % options_.eval_interval == 0 ||
        epoch + 1 == options_.epochs) {
      double acc = 0.0;
      for (const TrainGraph& tg : train_graphs) {
        acc += evaluate_accuracy(*model_, tg);
      }
      record.train_accuracy = acc / static_cast<double>(train_graphs.size());
      if (test != nullptr) {
        record.test_accuracy = evaluate_accuracy(*model_, *test);
      }
    } else if (!history.empty()) {
      record.train_accuracy = history.back().train_accuracy;
      record.test_accuracy = history.back().test_accuracy;
    }
    history.push_back(record);

    // Epoch-boundary checkpoint: written atomically, so a kill at any
    // instant leaves either this checkpoint or the previous one.
    if (!options_.checkpoint_path.empty() &&
        ((epoch + 1) % std::max<std::size_t>(1, options_.checkpoint_interval)
             == 0 ||
         epoch + 1 == options_.epochs)) {
      TraceSpan checkpoint_span("train.checkpoint");
      TrainCheckpoint checkpoint;
      checkpoint.next_epoch = epoch + 1;
      checkpoint.rng_state = rng.state();
      checkpoint.optimizer_kind = optimizer.kind();
      checkpoint.optimizer_step_count = optimizer.step_count();
      for (Matrix* m : optimizer.state_matrices()) {
        checkpoint.optimizer_state.push_back(*m);
      }
      checkpoint.history = history;
      std::ostringstream model_text;
      save_model(*model_, model_text);
      checkpoint.model_text = model_text.str();
      save_checkpoint_file(options_.checkpoint_path, checkpoint);
      checkpoints_counter.add();
    }
  }
  return history;
}

}  // namespace gcnt
