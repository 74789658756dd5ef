// Parser robustness: randomly mutated netlist text must never crash or
// corrupt — every malformed input surfaces as gcnt::Error{kCorrupt}, and
// anything accepted must be structurally valid.

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "common/rng.h"
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

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace gcnt
