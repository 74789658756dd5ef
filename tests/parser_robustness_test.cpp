// Decoder robustness: randomly mutated netlist text, model files,
// training checkpoints and flow journals must never crash or corrupt.
// Malformed netlists surface as gcnt::Error{kCorrupt}; anything accepted
// must be structurally valid. The artifact decoders are fuzzed twice: mutating
// the whole file (the envelope's checks must reject it) and mutating the
// payload the envelope carries (the text decoder must). Success and a
// typed gcnt::Error are the only allowed outcomes. Each case is seeded
// and time-boxed so it also fits the sanitizer builds.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "common/artifact.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dft/flow_journal.h"
#include "gcn/checkpoint.h"
#include "gcn/serialize.h"
#include "gen/generator.h"
#include "netlist/bench_io.h"
#include "netlist/verilog_io.h"
#include "netlist_diff.h"

namespace gcnt {
namespace {

std::string base_bench() {
  GeneratorConfig config;
  config.seed = 1234;
  config.target_gates = 120;
  config.primary_inputs = 8;
  config.primary_outputs = 4;
  config.flip_flops = 4;
  return write_bench_string(generate_circuit(config));
}

std::string base_verilog() {
  GeneratorConfig config;
  config.seed = 1234;
  config.target_gates = 120;
  config.primary_inputs = 8;
  config.primary_outputs = 4;
  config.flip_flops = 4;
  return write_verilog_string(generate_circuit(config));
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, BenchNeverCrashes) {
  Rng rng(GetParam());
  std::string text = base_bench();
  for (int round = 0; round < 40; ++round) {
    text = mutate(text, rng);
    try {
      const Netlist parsed = read_bench_string(text, "fuzz");
      // Accepted input must produce an internally consistent graph (no
      // out-of-range edges; cones and orders must not crash).
      for (NodeId v = 0; v < parsed.size(); ++v) {
        for (NodeId u : parsed.fanins(v)) ASSERT_LT(u, parsed.size());
      }
      (void)parsed.validate();
    } catch (const Error& e) {
      // Expected for malformed text, and only as this kind.
      EXPECT_EQ(e.kind(), ErrorKind::kCorrupt) << e.what();
    }
  }
}

// The same on a text large enough to be scanned in four chunks at four
// kernel threads, so mutations land in every chunk and across the cuts.
TEST_P(ParserFuzz, ChunkedBenchNeverCrashes) {
  GeneratorConfig config;
  config.seed = 4321;
  config.target_gates = 20000;
  std::string text = write_bench_string(generate_circuit(config));
  Rng rng(GetParam() * 31 + 7);
  set_kernel_threads(4);
  for (int round = 0; round < 12; ++round) {
    for (int k = 0; k < 4; ++k) text = mutate(text, rng);
    try {
      const Netlist parsed = read_bench_string(text, "fuzz");
      for (NodeId v = 0; v < parsed.size(); ++v) {
        for (NodeId u : parsed.fanins(v)) ASSERT_LT(u, parsed.size());
      }
      (void)parsed.validate();
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCorrupt) << e.what();
    }
  }
  set_kernel_threads(0);
}

TEST_P(ParserFuzz, VerilogNeverCrashes) {
  Rng rng(GetParam() * 77 + 5);
  std::string text = base_verilog();
  for (int round = 0; round < 40; ++round) {
    text = mutate(text, rng);
    try {
      const Netlist parsed = read_verilog_string(text, "fuzz");
      for (NodeId v = 0; v < parsed.size(); ++v) {
        for (NodeId u : parsed.fanins(v)) ASSERT_LT(u, parsed.size());
      }
      (void)parsed.validate();
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCorrupt) << e.what();
    }
  }
}

// ---- Model and checkpoint artifacts ---------------------------------------

constexpr int kArtifactRounds = 100;
constexpr auto kArtifactBudget = std::chrono::seconds(4);

GcnConfig fuzz_model_config() {
  GcnConfig config;
  config.depth = 2;
  config.embed_dims = {6, 5};
  config.fc_dims = {4};
  config.seed = 11;
  return config;
}

std::string base_model_text() {
  std::ostringstream out;
  save_model(GcnModel(fuzz_model_config()), out);
  return out.str();
}

TrainCheckpoint base_checkpoint() {
  TrainCheckpoint checkpoint;
  checkpoint.next_epoch = 3;
  checkpoint.rng_state = {1, 22, 333, 4444};
  checkpoint.optimizer_kind = "adam";
  checkpoint.optimizer_step_count = 3;
  for (const std::size_t cols : {3u, 2u}) {
    Matrix state(2, cols);
    for (std::size_t i = 0; i < state.size(); ++i) {
      state.data()[i] = 0.125f * static_cast<float>(i) - 0.25f;
    }
    checkpoint.optimizer_state.push_back(state);
  }
  for (std::size_t epoch = 0; epoch < 3; ++epoch) {
    checkpoint.history.push_back({epoch, 0.5 / (1.0 + epoch), 0.75, 0.5});
  }
  checkpoint.model_text = base_model_text();
  return checkpoint;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// mutate(), or one whitespace-separated token swapped for a value that
/// probes the decoders' numeric checks (bounds, sign, overflow, NaN).
/// Half the swaps land in the first 128 bytes, where the header fields
/// are; weight values dominate the rest.
std::string mutate_artifact(const std::string& text, Rng& rng) {
  if (text.empty() || rng.below(2) == 0) return mutate(text, rng);
  static const std::array<const char*, 12> kTokens = {
      "0",   "-1",   "nan",  "inf",        "1e39",     "99999999",
      "-0",  "v2",   "v0",   "4294967297", "16777217", "18446744073709551616"};
  std::string out = text;
  const auto space_at = [&out](std::size_t i) {
    return std::isspace(static_cast<unsigned char>(out[i])) != 0;
  };
  std::size_t begin = rng.below(rng.below(2) == 0
                                    ? std::min<std::size_t>(out.size(), 128)
                                    : out.size());
  while (begin > 0 && !space_at(begin - 1)) --begin;
  std::size_t end = begin;
  while (end < out.size() && !space_at(end)) ++end;
  out.replace(begin, end - begin, kTokens[rng.below(kTokens.size())]);
  return out;
}

/// Runs `decode` on `kArtifactRounds` variants of `base` with one to
/// three mutations each (within kArtifactBudget): success and
/// gcnt::Error are fine, any other exception fails the test. Variants
/// start from `base`, so damage early in the file does not hide the
/// fields behind it in later rounds.
void fuzz_decoder(std::uint64_t seed, const std::string& base,
                  const std::function<void(const std::string&)>& decode) {
  Rng rng(seed);
  const auto deadline = std::chrono::steady_clock::now() + kArtifactBudget;
  for (int round = 0; round < kArtifactRounds &&
                      std::chrono::steady_clock::now() < deadline;
       ++round) {
    std::string bytes = base;
    for (std::size_t m = 1 + rng.below(3); m > 0; --m) {
      bytes = mutate_artifact(bytes, rng);
    }
    try {
      decode(bytes);
    } catch (const Error&) {
      // A typed rejection is the expected outcome for damaged input.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "round " << round << ": untyped " << e.what();
      return;
    }
  }
}

/// Per-process, per-seed scratch file, so concurrent runs do not collide.
std::string fuzz_path(const char* what, std::uint64_t seed) {
  return std::string("parser_fuzz_") + what + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(seed);
}

TEST_P(ParserFuzz, ModelPayloadNeverCrashes) {
  fuzz_decoder(GetParam() * 131 + 7, base_model_text(),
               [](const std::string& payload) {
                 std::istringstream in(payload);
                 (void)load_model(in);
               });
}

TEST_P(ParserFuzz, ModelFileNeverCrashes) {
  const std::string path = fuzz_path("model_file", GetParam());
  save_model_file(GcnModel(fuzz_model_config()), path);
  const std::string base = read_file(path);
  fuzz_decoder(GetParam() * 137 + 3, base, [&](const std::string& bytes) {
    write_file(path, bytes);
    (void)load_model_file(path);
  });
  std::remove(path.c_str());
}

// The checkpoint decoder as Trainer::resume runs it: the checkpoint
// fields, then the model text they carry.
void load_checkpoint_and_model(const std::string& path) {
  const TrainCheckpoint checkpoint = load_checkpoint_file(path);
  std::istringstream model(checkpoint.model_text);
  (void)load_model(model);
}

TEST_P(ParserFuzz, CheckpointPayloadNeverCrashes) {
  const std::string path = fuzz_path("checkpoint", GetParam());
  save_checkpoint_file(path, base_checkpoint());
  const std::string envelope = read_file(path);
  const std::string payload = envelope.substr(envelope.find('\n') + 1);
  fuzz_decoder(GetParam() * 139 + 5, payload,
               [&](const std::string& mutated) {
                 write_artifact_file(path, "checkpoint", mutated);
                 load_checkpoint_and_model(path);
               });
  std::remove(path.c_str());
}

TEST_P(ParserFuzz, CheckpointFileNeverCrashes) {
  const std::string path = fuzz_path("checkpoint_file", GetParam());
  save_checkpoint_file(path, base_checkpoint());
  const std::string base = read_file(path);
  fuzz_decoder(GetParam() * 149 + 1, base, [&](const std::string& bytes) {
    write_file(path, bytes);
    load_checkpoint_and_model(path);
  });
  std::remove(path.c_str());
}

// Flow journals: the header and three records, as an OPI sweep leaves
// them after three iterations.
std::string base_journal(const std::string& path) {
  FlowJournal journal;
  journal.open(path, "opi", "fuzz", 400, false);
  FlowJournalRecord record;
  record.entries = {{7, 0}, {12, 0}, {31, 0}};
  journal.append(record);
  record.iteration = 1;
  record.entries = {{399, 1}};
  journal.append(record);
  record.iteration = 2;
  record.entries.clear();
  journal.append(record);
  journal.close();
  return read_file(path);
}

void resume_journal(const std::string& path) {
  FlowJournal journal;
  journal.open(path, "opi", "fuzz", 400, /*resume=*/true);
}

/// Every line of `text` with its CRC32C seal, as FlowJournal writes it.
std::string seal_lines(const std::string& text) {
  std::string out;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string body = text.substr(begin, end - begin);
    char crc[16];
    std::snprintf(crc, sizeof crc, " %08x\n",
                  crc32c(body.data(), body.size()));
    out += body + crc;
    begin = end + 1;
  }
  return out;
}

// Mutated record bodies, re-sealed: the checksum passes, so the record
// parser itself must reject whatever it cannot read.
TEST_P(ParserFuzz, JournalRecordsNeverCrash) {
  const std::string path = fuzz_path("journal", GetParam());
  const std::string sealed = base_journal(path);
  std::string bodies;
  for (std::size_t begin = 0; begin < sealed.size();) {
    const std::size_t end = sealed.find('\n', begin);
    bodies += sealed.substr(begin, sealed.rfind(' ', end) - begin) + "\n";
    begin = end + 1;
  }
  ASSERT_EQ(seal_lines(bodies), sealed);
  fuzz_decoder(GetParam() * 151 + 9, bodies, [&](const std::string& mutated) {
    write_file(path, seal_lines(mutated));
    resume_journal(path);
  });
  std::remove(path.c_str());
}

TEST_P(ParserFuzz, JournalFileNeverCrashes) {
  const std::string path = fuzz_path("journal_file", GetParam());
  const std::string base = base_journal(path);
  fuzz_decoder(GetParam() * 157 + 11, base, [&](const std::string& bytes) {
    write_file(path, bytes);
    resume_journal(path);
  });
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace gcnt
