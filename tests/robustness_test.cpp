// Crash-safety and hardened-I/O suite: CRC32C vectors, the artifact
// envelope, deterministic fault injection, checkpoint/resume bit-identity
// (kill at every epoch, across thread counts), and OPI journal replay.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/artifact.h"
#include "common/error.h"
#include "common/fault_inject.h"
#include "common/parallel.h"
#include "cop/cop.h"
#include "data/dataset.h"
#include "data/labeler.h"
#include "dft/flow_journal.h"
#include "dft/gcn_cpi.h"
#include "dft/gcn_opi.h"
#include "gcn/checkpoint.h"
#include "gcn/serialize.h"
#include "gcn/trainer.h"
#include "gen/generator.h"
#include "netlist/bench_io.h"

namespace gcnt {
namespace {

/// RAII: no fault spec leaks into the next test even on early exit.
struct FaultGuard {
  ~FaultGuard() { clear_fault_injection(); }
};

ErrorKind kind_of(const std::function<void()>& op) {
  try {
    op();
  } catch (const Error& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected gcnt::Error";
  return ErrorKind::kInternal;
}

// ---- CRC32C ---------------------------------------------------------------

TEST(Crc32c, KnownVectors) {
  // Castagnoli check value (RFC 3720 appendix B.4 / Intel SSE4.2).
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
}

TEST(Crc32c, ChainingMatchesOneShot) {
  const std::string text = "graph convolutional networks";
  const std::uint32_t whole = crc32c(text.data(), text.size());
  const std::uint32_t first = crc32c(text.data(), 10);
  EXPECT_EQ(crc32c(text.data() + 10, text.size() - 10, first), whole);
}

TEST(Crc32c, SingleBitChangesValue) {
  std::string text = "abcdefgh";
  const std::uint32_t before = crc32c(text.data(), text.size());
  text[3] ^= 1;
  EXPECT_NE(crc32c(text.data(), text.size()), before);
}

// ---- Artifact envelope ----------------------------------------------------

TEST(Artifact, RoundTrip) {
  const std::string path = "robustness_artifact.bin";
  const std::string payload = "payload with\nnewlines and \0 bytes";
  write_artifact_file(path, "demo", payload);
  EXPECT_TRUE(is_artifact_file(path));
  EXPECT_EQ(read_artifact_file(path, "demo"), payload);
  std::remove(path.c_str());
}

TEST(Artifact, WrongKindRejected) {
  const std::string path = "robustness_kind.bin";
  write_artifact_file(path, "model", "x");
  EXPECT_EQ(kind_of([&] { read_artifact_file(path, "checkpoint"); }),
            ErrorKind::kCorrupt);
  std::remove(path.c_str());
}

TEST(Artifact, MissingFileIsIo) {
  EXPECT_EQ(kind_of([] { read_artifact_file("/nonexistent/a.bin", "x"); }),
            ErrorKind::kIo);
}

TEST(Artifact, FutureVersionRejected) {
  const std::string path = "robustness_version.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "gcnt-artifact v99 demo 1 00000000\nx";
  }
  EXPECT_EQ(kind_of([&] { read_artifact_file(path, "demo"); }),
            ErrorKind::kVersion);
  std::remove(path.c_str());
}

TEST(Artifact, TruncationRejected) {
  const std::string path = "robustness_trunc.bin";
  write_artifact_file(path, "demo", "0123456789abcdef");
  std::ifstream in(path, std::ios::binary);
  std::stringstream whole;
  whole << in.rdbuf();
  in.close();
  std::string text = whole.str();
  text.resize(text.size() - 5);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  EXPECT_EQ(kind_of([&] { read_artifact_file(path, "demo"); }),
            ErrorKind::kCorrupt);
  std::remove(path.c_str());
}

TEST(Artifact, BitFlipRejected) {
  const std::string path = "robustness_flip.bin";
  write_artifact_file(path, "demo", "0123456789abcdef");
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(-3, std::ios::end);
    const char original = static_cast<char>(file.peek());
    file.put(static_cast<char>(original ^ 0x10));
  }
  EXPECT_EQ(kind_of([&] { read_artifact_file(path, "demo"); }),
            ErrorKind::kCorrupt);
  std::remove(path.c_str());
}

// ---- Fault injection ------------------------------------------------------

TEST(FaultInject, SpecParsing) {
  const FaultSpec spec = parse_fault_spec(
      "fail-write:nth=3;short-write:nth=1,bytes=40;"
      "bitflip-read:nth=2,seed=7;alloc-fail:nth=5");
  EXPECT_EQ(spec.fail_write_nth, 3u);
  EXPECT_EQ(spec.short_write_nth, 1u);
  EXPECT_EQ(spec.short_write_bytes, 40u);
  EXPECT_EQ(spec.bitflip_read_nth, 2u);
  EXPECT_EQ(spec.bitflip_seed, 7u);
  EXPECT_EQ(spec.alloc_fail_nth, 5u);
  EXPECT_TRUE(spec.armed());
  EXPECT_FALSE(FaultSpec{}.armed());
}

TEST(FaultInject, BadSpecIsUsageError) {
  EXPECT_EQ(kind_of([] { parse_fault_spec("explode:nth=1"); }),
            ErrorKind::kUsage);
  EXPECT_EQ(kind_of([] { parse_fault_spec("fail-write:count=1"); }),
            ErrorKind::kUsage);
  EXPECT_EQ(kind_of([] { parse_fault_spec("fail-write"); }),
            ErrorKind::kUsage);
  EXPECT_EQ(kind_of([] { parse_fault_spec("fail-write:nth=zebra"); }),
            ErrorKind::kUsage);
}

TEST(FaultInject, FailWritePreservesPreviousContents) {
  FaultGuard guard;
  const std::string path = "robustness_failwrite.bin";
  write_artifact_file(path, "demo", "generation one");

  FaultSpec spec;
  spec.fail_write_nth = 1;
  set_fault_spec(spec);
  EXPECT_EQ(kind_of([&] { write_artifact_file(path, "demo", "generation two"); }),
            ErrorKind::kIo);
  clear_fault_injection();

  // The injected failure happened before the rename: the old artifact is
  // intact, not torn.
  EXPECT_EQ(read_artifact_file(path, "demo"), "generation one");
  std::remove(path.c_str());
}

TEST(FaultInject, ShortWriteTornArtifactRejected) {
  FaultGuard guard;
  const std::string path = "robustness_shortwrite.bin";
  FaultSpec spec;
  spec.short_write_nth = 1;
  set_fault_spec(spec);
  write_artifact_file(path, "demo", "a payload long enough to truncate");
  clear_fault_injection();

  // The torn artifact was renamed into place, so it exists — and the
  // checksum/length verification must refuse it.
  EXPECT_EQ(kind_of([&] { read_artifact_file(path, "demo"); }),
            ErrorKind::kCorrupt);
  std::remove(path.c_str());
}

TEST(FaultInject, BitflipReadDetectedByChecksum) {
  FaultGuard guard;
  const std::string path = "robustness_bitflip.bin";
  write_artifact_file(path, "demo", "stable bytes on disk");

  FaultSpec spec;
  spec.bitflip_read_nth = 1;
  spec.bitflip_seed = 99;
  set_fault_spec(spec);
  EXPECT_EQ(kind_of([&] { read_artifact_file(path, "demo"); }),
            ErrorKind::kCorrupt);
  clear_fault_injection();

  // The flip happened in memory; on disk the artifact is still good.
  EXPECT_EQ(read_artifact_file(path, "demo"), "stable bytes on disk");
  std::remove(path.c_str());
}

TEST(FaultInject, AllocFailureIsResourceError) {
  FaultGuard guard;
  GcnConfig config;
  config.depth = 1;
  config.embed_dims = {4};
  config.fc_dims = {4};
  GcnModel model(config);
  const std::string path = "robustness_allocfail.txt";
  save_model_file(model, path);

  FaultSpec spec;
  spec.alloc_fail_nth = 1;
  set_fault_spec(spec);
  EXPECT_EQ(kind_of([&] { load_model_file(path); }), ErrorKind::kResource);
  clear_fault_injection();
  std::remove(path.c_str());
}

// ---- Error taxonomy -------------------------------------------------------

TEST(Errors, ExitCodeMapping) {
  EXPECT_EQ(exit_code_for(ErrorKind::kUsage), 64);
  EXPECT_EQ(exit_code_for(ErrorKind::kCorrupt), 65);
  EXPECT_EQ(exit_code_for(ErrorKind::kVersion), 65);
  EXPECT_EQ(exit_code_for(ErrorKind::kInternal), 70);
  EXPECT_EQ(exit_code_for(ErrorKind::kResource), 71);
  EXPECT_EQ(exit_code_for(ErrorKind::kIo), 74);
}

TEST(Errors, NamesAndRuntimeErrorCompatibility) {
  EXPECT_STREQ(error_kind_name(ErrorKind::kIo), "io");
  EXPECT_STREQ(error_kind_name(ErrorKind::kCorrupt), "corrupt");
  const Error error(ErrorKind::kVersion, "too new");
  EXPECT_EQ(error.kind(), ErrorKind::kVersion);
  // Existing catch sites expect std::runtime_error.
  EXPECT_THROW(throw Error(ErrorKind::kIo, "x"), std::runtime_error);
}

// ---- Checkpoint / resume --------------------------------------------------

GeneratorConfig tiny_design(std::uint64_t seed) {
  GeneratorConfig config;
  config.seed = seed;
  config.target_gates = 400;
  config.primary_inputs = 16;
  config.primary_outputs = 8;
  config.flip_flops = 16;
  return config;
}

GcnConfig tiny_model_config() {
  GcnConfig config;
  config.depth = 1;
  config.embed_dims = {8};
  config.fc_dims = {8};
  config.seed = 77;
  return config;
}

TrainerOptions tiny_train_options() {
  TrainerOptions options;
  options.epochs = 5;
  options.learning_rate = 1e-2f;
  options.positive_class_weight = 4.0f;
  options.eval_interval = 2;
  return options;
}

std::string model_fingerprint(const GcnModel& model) {
  std::ostringstream text;
  save_model(model, text);
  return text.str();
}

/// Shared tiny dataset — built once, the expensive part of this suite.
class ResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    LabelerOptions labeler;
    labeler.batches = 4;
    dataset_ = new Dataset(
        make_dataset(generate_circuit(tiny_design(91)), labeler));
    dataset_->tensors.standardize_features();
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static TrainGraph data() { return TrainGraph{&dataset_->tensors, {}}; }

  static Dataset* dataset_;
};

Dataset* ResumeTest::dataset_ = nullptr;

TEST_F(ResumeTest, CheckpointRoundTripRestoresEveryField) {
  const std::string path = "robustness_ckpt_roundtrip.ckpt";
  TrainerOptions options = tiny_train_options();
  options.checkpoint_path = path;
  GcnModel model(tiny_model_config());
  Trainer trainer(model, options);
  const TrainGraph graph = data();
  const auto history = trainer.train({graph}, nullptr);

  const TrainCheckpoint checkpoint = load_checkpoint_file(path);
  EXPECT_EQ(checkpoint.next_epoch, options.epochs);
  EXPECT_EQ(checkpoint.optimizer_kind, "adam");
  EXPECT_GT(checkpoint.optimizer_step_count, 0);
  EXPECT_FALSE(checkpoint.optimizer_state.empty());
  ASSERT_EQ(checkpoint.history.size(), history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(checkpoint.history[i].epoch, history[i].epoch);
    EXPECT_EQ(checkpoint.history[i].loss, history[i].loss);
  }
  EXPECT_EQ(checkpoint.model_text, model_fingerprint(model));
  std::remove(path.c_str());
}

// The core bit-identity claim: kill training at EVERY epoch boundary (an
// injected resource fault at the start of epoch k), resume, and require
// the final weights to match an uninterrupted run byte for byte — at one
// thread and at eight (the kernels are bitwise thread-count-invariant).
TEST_F(ResumeTest, KillAtEveryEpochResumesBitIdentical) {
  FaultGuard guard;
  const std::string path = "robustness_ckpt_kill.ckpt";
  const TrainGraph graph = data();

  TrainerOptions plain = tiny_train_options();
  GcnModel reference(tiny_model_config());
  Trainer reference_trainer(reference, plain);
  reference_trainer.train({graph}, nullptr);
  const std::string expected = model_fingerprint(reference);
  const std::size_t epochs = plain.epochs;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    set_kernel_threads(threads);
    for (std::size_t kill_epoch = 1; kill_epoch < epochs; ++kill_epoch) {
      std::remove(path.c_str());
      TrainerOptions options = tiny_train_options();
      options.checkpoint_path = path;

      // Crash: the trainer's epoch-boundary alloc probe fires at the
      // start of epoch `kill_epoch` (1-based probe count), after epochs
      // [0, kill_epoch) completed and checkpointed.
      GcnModel victim(tiny_model_config());
      Trainer victim_trainer(victim, options);
      FaultSpec spec;
      spec.alloc_fail_nth = kill_epoch + 1;
      set_fault_spec(spec);
      try {
        victim_trainer.train({graph}, nullptr);
        FAIL() << "expected injected crash at epoch " << kill_epoch;
      } catch (const Error& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kResource);
      }
      clear_fault_injection();

      // Resume in a fresh process-equivalent: new model object, weights
      // and optimizer state come from the checkpoint.
      GcnModel resumed(tiny_model_config());
      Trainer resumed_trainer(resumed, options);
      const auto history = resumed_trainer.resume({graph}, nullptr);
      EXPECT_EQ(history.size(), epochs);
      EXPECT_EQ(model_fingerprint(resumed), expected)
          << "divergence after kill at epoch " << kill_epoch << " with "
          << threads << " threads";
    }
  }
  set_kernel_threads(0);  // restore the default
  std::remove(path.c_str());
}

TEST_F(ResumeTest, SgdResumeAlsoBitIdentical) {
  const std::string path = "robustness_ckpt_sgd.ckpt";
  const TrainGraph graph = data();
  TrainerOptions plain = tiny_train_options();
  plain.use_adam = false;
  GcnModel reference(tiny_model_config());
  Trainer reference_trainer(reference, plain);
  reference_trainer.train({graph}, nullptr);

  TrainerOptions options = plain;
  options.checkpoint_path = path;
  options.epochs = 2;
  GcnModel partial(tiny_model_config());
  Trainer partial_trainer(partial, options);
  partial_trainer.train({graph}, nullptr);

  options.epochs = plain.epochs;
  GcnModel resumed(tiny_model_config());
  Trainer resumed_trainer(resumed, options);
  resumed_trainer.resume({graph}, nullptr);
  EXPECT_EQ(model_fingerprint(resumed), model_fingerprint(reference));
  std::remove(path.c_str());
}

TEST_F(ResumeTest, ResumeWithoutCheckpointFallsBackToFreshTrain) {
  const std::string path = "robustness_ckpt_missing.ckpt";
  std::remove(path.c_str());
  TrainerOptions options = tiny_train_options();
  options.checkpoint_path = path;
  GcnModel model(tiny_model_config());
  Trainer trainer(model, options);
  const auto history = trainer.resume({data()}, nullptr);
  EXPECT_EQ(history.size(), options.epochs);
  std::remove(path.c_str());
}

TEST_F(ResumeTest, CorruptCheckpointRejected) {
  const std::string path = "robustness_ckpt_corrupt.ckpt";
  TrainerOptions options = tiny_train_options();
  options.epochs = 2;
  options.checkpoint_path = path;
  GcnModel model(tiny_model_config());
  Trainer trainer(model, options);
  trainer.train({data()}, nullptr);

  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(-20, std::ios::end);
    file.put('!');
  }
  GcnModel resumed(tiny_model_config());
  Trainer resumed_trainer(resumed, options);
  EXPECT_EQ(kind_of([&] { resumed_trainer.resume({data()}, nullptr); }),
            ErrorKind::kCorrupt);
  std::remove(path.c_str());
}

TEST_F(ResumeTest, OptimizerMismatchRejected) {
  const std::string path = "robustness_ckpt_opt.ckpt";
  TrainerOptions options = tiny_train_options();
  options.epochs = 2;
  options.checkpoint_path = path;
  GcnModel model(tiny_model_config());
  Trainer trainer(model, options);
  trainer.train({data()}, nullptr);

  TrainerOptions sgd = options;
  sgd.use_adam = false;
  GcnModel resumed(tiny_model_config());
  Trainer resumed_trainer(resumed, sgd);
  EXPECT_EQ(kind_of([&] { resumed_trainer.resume({data()}, nullptr); }),
            ErrorKind::kUsage);
  std::remove(path.c_str());
}

// ---- Flow journal ---------------------------------------------------------

TEST(FlowJournal, AppendAndResumeRoundTrip) {
  const std::string path = "robustness_journal_rt.log";
  {
    FlowJournal journal;
    journal.open(path, "opi", "designA", 400, false);
    FlowJournalRecord record;
    record.iteration = 0;
    record.entries = {{7, 0}, {12, 0}};
    journal.append(record);
    record.iteration = 1;
    record.entries = {{99, 1}};
    journal.append(record);
  }
  FlowJournal resumed;
  resumed.open(path, "opi", "designA", 400, true);
  ASSERT_EQ(resumed.records().size(), 2u);
  EXPECT_EQ(resumed.records()[0].entries.size(), 2u);
  EXPECT_EQ(resumed.records()[1].iteration, 1u);
  EXPECT_EQ(resumed.records()[1].entries[0].first, 99u);
  EXPECT_EQ(resumed.records()[1].entries[0].second, 1);
  resumed.remove();
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(FlowJournal, TornTailTruncatedOnResume) {
  const std::string path = "robustness_journal_torn.log";
  {
    FlowJournal journal;
    journal.open(path, "opi", "designA", 400, false);
    FlowJournalRecord record;
    record.iteration = 0;
    record.entries = {{3, 0}};
    journal.append(record);
  }
  {
    // Simulate a crash mid-append: bytes without a valid checksum line.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "I 1 4 17:0 21";
  }
  FlowJournal resumed;
  resumed.open(path, "opi", "designA", 400, true);
  EXPECT_EQ(resumed.records().size(), 1u);
  // The tail was truncated: appending must continue cleanly.
  FlowJournalRecord record;
  record.iteration = 1;
  record.entries = {{17, 0}};
  resumed.append(record);
  resumed.close();

  FlowJournal reread;
  reread.open(path, "opi", "designA", 400, true);
  EXPECT_EQ(reread.records().size(), 2u);
  reread.remove();
}

TEST(FlowJournal, WrongDesignRejectedAsUsage) {
  const std::string path = "robustness_journal_design.log";
  {
    FlowJournal journal;
    journal.open(path, "opi", "designA", 400, false);
  }
  FlowJournal resumed;
  EXPECT_EQ(kind_of([&] { resumed.open(path, "opi", "designB", 400, true); }),
            ErrorKind::kUsage);
  EXPECT_EQ(kind_of([&] { resumed.open(path, "cpi", "designA", 400, true); }),
            ErrorKind::kUsage);
  EXPECT_EQ(kind_of([&] { resumed.open(path, "opi", "designA", 401, true); }),
            ErrorKind::kUsage);
  std::remove(path.c_str());
}

TEST(FlowJournal, MidFileCorruptionRejected) {
  const std::string path = "robustness_journal_mid.log";
  {
    FlowJournal journal;
    journal.open(path, "opi", "designA", 400, false);
    FlowJournalRecord record;
    record.iteration = 0;
    record.entries = {{3, 0}, {4, 0}};
    journal.append(record);
    record.iteration = 1;
    record.entries = {{5, 0}};
    journal.append(record);
  }
  // Flip a byte inside the FIRST record — not the tail — which is real
  // corruption, not a crash signature. (Torn-tail handling would treat a
  // bad line as "truncate here", so corruption detection rests on the
  // remaining bytes: a valid record after the cut means the file did not
  // end mid-append.)
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  std::string header;
  std::getline(file, header);
  const std::streampos pos = file.tellg();
  file.seekp(pos + std::streamoff(2));
  file.put('~');
  file.close();
  FlowJournal resumed;
  EXPECT_THROW(resumed.open(path, "opi", "designA", 400, true), Error);
  std::remove(path.c_str());
}

/// `body` sealed the way FlowJournal seals a line: " <crc32c-hex>\n".
std::string sealed(const std::string& body) {
  char crc[16];
  std::snprintf(crc, sizeof crc, " %08x\n", crc32c(body.data(), body.size()));
  return body + crc;
}

// A checksum-valid record is not a well-formed one: every field must
// parse whole as its type, or the resume fails with a typed kCorrupt.
TEST(FlowJournal, MalformedChecksumValidRecordsRejectedAsCorrupt) {
  const std::string path = "robustness_journal_fields.log";
  for (const char* body :
       {"I 0 1 abc:0", "I 0 1 5:x", "I 0 1 -1:0", "I 0 1 +5:0",
        "I 0 1 4294967296:0", "I 0 1 5:99999999999", "I 0 1 5:", "I 0 1 :0",
        "I 0 1 5", "I 0 2 5:0", "I 0 1 5:0 6:0", "I -1 1 5:0", "I x 1 5:0",
        "I 0 -1", "I 0 1  5:0", "I 0 1 5:0 ", "X 0 1 5:0", "I 0"}) {
    SCOPED_TRACE(body);
    {
      FlowJournal journal;
      journal.open(path, "opi", "designA", 400, false);
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::app);
      out << sealed(body);
    }
    FlowJournal resumed;
    EXPECT_EQ(kind_of([&] { resumed.open(path, "opi", "designA", 400, true); }),
              ErrorKind::kCorrupt);
  }
  // The same lines, well formed, replay.
  {
    FlowJournal journal;
    journal.open(path, "opi", "designA", 400, false);
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << sealed("I 0 2 5:0 4294967295:1") << sealed("I 1 0");
  }
  FlowJournal resumed;
  resumed.open(path, "opi", "designA", 400, true);
  ASSERT_EQ(resumed.records().size(), 2u);
  EXPECT_EQ(resumed.records()[0].entries[1].first, 4294967295u);
  EXPECT_EQ(resumed.records()[0].entries[1].second, 1);
  EXPECT_TRUE(resumed.records()[1].entries.empty());
  resumed.remove();
}

// ---- End-to-end OPI/CPI crash/resume --------------------------------------

/// One insertion flow over the shared loop: its trained model and a sweep
/// that returns what it inserted (OPI: targets; CPI: the CP gates).
struct JournaledFlow {
  GcnModel model{tiny_model_config()};
  std::function<std::vector<NodeId>(const GcnModel&, Netlist&,
                                    const std::string& journal, bool resume,
                                    std::size_t& iterations)>
      sweep;
};

/// A small predictor for `flow`, trained so the sweep actually inserts
/// points: difficult-to-observe labels for "opi", difficult-to-control
/// labels for "cpi".
JournaledFlow make_journaled_flow(const std::string& flow) {
  JournaledFlow made;
  const Netlist netlist = generate_circuit(tiny_design(57));
  LabelerOptions labeler;
  labeler.batches = 8;
  Dataset dataset = make_dataset(netlist, labeler);
  if (flow == "cpi") {
    dataset.tensors.labels = label_difficult_to_control(
        dataset.netlist, compute_cop(dataset.netlist), 0.02);
  }
  TrainerOptions train_options;
  train_options.epochs = 60;
  train_options.positive_class_weight = 8.0f;
  train_options.eval_interval = 100;
  Trainer trainer(made.model, train_options);
  const TrainGraph graph{&dataset.tensors, {}};
  trainer.train({graph}, nullptr);

  if (flow == "opi") {
    made.sweep = [](const GcnModel& model, Netlist& netlist,
                    const std::string& journal, bool resume,
                    std::size_t& iterations) {
      GcnOpiOptions options;
      options.max_iterations = 3;
      options.journal_path = journal;
      options.journal_design = "tiny57";
      options.resume = resume;
      const OpiResult result = run_gcn_opi(netlist, {&model}, options);
      iterations = result.iterations;
      return result.inserted;
    };
  } else {
    made.sweep = [](const GcnModel& model, Netlist& netlist,
                    const std::string& journal, bool resume,
                    std::size_t& iterations) {
      GcnCpiOptions options;
      options.max_iterations = 3;
      options.journal_path = journal;
      options.journal_design = "tiny57";
      options.resume = resume;
      const GcnCpiResult result = run_gcn_cpi(netlist, {&model}, options);
      iterations = result.iterations;
      std::vector<NodeId> gates;
      for (const Netlist::ControlPoint& cp : result.inserted) {
        gates.push_back(cp.gate);
      }
      return gates;
    };
  }
  return made;
}

class FlowJournalResume : public ::testing::TestWithParam<std::string> {};

TEST_P(FlowJournalResume, CrashedSweepResumesToIdenticalNetlist) {
  FaultGuard guard;
  const JournaledFlow flow = make_journaled_flow(GetParam());

  // Reference: uninterrupted sweep.
  Netlist reference = generate_circuit(tiny_design(57));
  std::size_t expected_iterations = 0;
  const std::vector<NodeId> expected =
      flow.sweep(flow.model, reference, "", false, expected_iterations);
  ASSERT_GT(expected.size(), 0u) << "sweep inserted nothing; the "
                                    "crash/resume check is vacuous";

  // Crash: fail the journal's second record append (probe 1 = header,
  // probe 2 = iteration 0, probe 3 = iteration 1).
  const std::string journal_path = "robustness_" + GetParam() + ".journal";
  std::remove(journal_path.c_str());
  Netlist crashed = generate_circuit(tiny_design(57));
  FaultSpec spec;
  spec.fail_write_nth = 3;
  set_fault_spec(spec);
  std::size_t iterations = 0;
  EXPECT_EQ(kind_of([&] {
              flow.sweep(flow.model, crashed, journal_path, false,
                         iterations);
            }),
            ErrorKind::kIo);
  clear_fault_injection();
  EXPECT_TRUE(std::ifstream(journal_path).good()) << "journal must survive";

  // Resume on the ORIGINAL netlist: replay + continue.
  Netlist resumed = generate_circuit(tiny_design(57));
  const std::vector<NodeId> actual =
      flow.sweep(flow.model, resumed, journal_path, true, iterations);

  EXPECT_EQ(actual, expected);
  EXPECT_EQ(iterations, expected_iterations);
  std::ostringstream reference_text, resumed_text;
  write_bench(reference, reference_text);
  write_bench(resumed, resumed_text);
  EXPECT_EQ(resumed_text.str(), reference_text.str());
  // A completed sweep removes its journal.
  EXPECT_FALSE(std::ifstream(journal_path).good());
}

INSTANTIATE_TEST_SUITE_P(BothFlows, FlowJournalResume,
                         ::testing::Values("opi", "cpi"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace gcnt
