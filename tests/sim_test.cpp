// Logic simulation (truth tables, bit-parallel semantics) and fault
// simulation (manual cases + brute-force equivalence property).

#include <gtest/gtest.h>

#include <bit>

#include "common/parallel.h"
#include "common/rng.h"
#include "gen/generator.h"
#include "netlist/bench_io.h"
#include "sim/fault_sim.h"
#include "sim/logic_sim.h"

namespace gcnt {
namespace {

NodeId by_name(const Netlist& n, const std::string& name) {
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.node_name(v) == name) return v;
  }
  ADD_FAILURE() << "node not found: " << name;
  return kInvalidNode;
}

/// Simulates a 2-input gate over all four patterns packed in one word:
/// bit k has a = k&1, b = k>>1.
std::uint64_t truth_table_2in(const std::string& gate) {
  const Netlist n = read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = " +
                                      gate + "(a, b)\n");
  LogicSimulator sim(n);
  PatternBatch batch(2);
  batch[0] = 0b1010;  // a = bit k of pattern index k
  batch[1] = 0b1100;  // b = bit k>>1
  std::vector<std::uint64_t> values;
  sim.simulate(batch, values);
  return values[by_name(n, "g")] & 0xF;
}

TEST(LogicSim, TwoInputTruthTables) {
  EXPECT_EQ(truth_table_2in("AND"), 0b1000u);
  EXPECT_EQ(truth_table_2in("OR"), 0b1110u);
  EXPECT_EQ(truth_table_2in("NAND"), 0b0111u);
  EXPECT_EQ(truth_table_2in("NOR"), 0b0001u);
  EXPECT_EQ(truth_table_2in("XOR"), 0b0110u);
  EXPECT_EQ(truth_table_2in("XNOR"), 0b1001u);
}

TEST(LogicSim, NotAndBuf) {
  const Netlist n = read_bench_string(
      "INPUT(a)\nOUTPUT(x)\nOUTPUT(y)\nx = NOT(a)\ny = BUF(a)\n");
  LogicSimulator sim(n);
  PatternBatch batch{0b01};
  std::vector<std::uint64_t> values;
  sim.simulate(batch, values);
  EXPECT_EQ(values[by_name(n, "x")] & 0x3, 0b10u);
  EXPECT_EQ(values[by_name(n, "y")] & 0x3, 0b01u);
}

TEST(LogicSim, ThreeInputGate) {
  const Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(g)\ng = XOR(a, b, c)\n");
  LogicSimulator sim(n);
  PatternBatch batch(3);
  batch[0] = 0b10101010;
  batch[1] = 0b11001100;
  batch[2] = 0b11110000;
  std::vector<std::uint64_t> values;
  sim.simulate(batch, values);
  EXPECT_EQ(values[by_name(n, "g")] & 0xFF, 0b10010110u);
}

TEST(LogicSim, DffOutputIsScanLoadedNotD) {
  const Netlist n = read_bench_string(
      "INPUT(a)\nOUTPUT(y)\nq = DFF(a)\ny = BUF(q)\n");
  LogicSimulator sim(n);
  ASSERT_EQ(sim.sources().size(), 2u);  // a and q
  PatternBatch batch(2);
  batch[0] = 0x0;  // a = 0 everywhere
  batch[1] = ~0ULL;  // q scan-loaded to 1
  std::vector<std::uint64_t> values;
  sim.simulate(batch, values);
  EXPECT_EQ(values[by_name(n, "y")], ~0ULL);  // sees the scan value
}

TEST(LogicSim, SourceAndSinkEnumeration) {
  const Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(g)\nq = DFF(g)\ng = AND(a, b)\n");
  LogicSimulator sim(n);
  EXPECT_EQ(sim.sources().size(), 3u);  // a, b, q
  EXPECT_EQ(sim.sinks().size(), 2u);    // PO and the DFF D pin
}

TEST(LogicSim, BatchSizeMismatchThrows) {
  const Netlist n = read_bench_string("INPUT(a)\nOUTPUT(a)\n");
  LogicSimulator sim(n);
  std::vector<std::uint64_t> values;
  EXPECT_THROW(sim.simulate(PatternBatch{}, values), std::invalid_argument);
}

TEST(FaultSim, StuckAtZeroOnAndOutput) {
  const Netlist n =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = AND(a, b)\n");
  LogicSimulator sim(n);
  FaultSimulator fsim(sim);
  PatternBatch batch(2);
  batch[0] = 0b1010;  // a
  batch[1] = 0b1100;  // b
  std::vector<std::uint64_t> values;
  sim.simulate(batch, values);
  // g sa0 detected only when g would be 1 (pattern 3).
  const std::uint64_t word =
      fsim.detect_word(Fault{by_name(n, "g"), false}, values);
  EXPECT_EQ(word & 0xF, 0b1000u);
  // g sa1 detected when g would be 0.
  const std::uint64_t word1 =
      fsim.detect_word(Fault{by_name(n, "g"), true}, values);
  EXPECT_EQ(word1 & 0xF, 0b0111u);
}

TEST(FaultSim, MaskedFaultNotDetected) {
  // a sa1 on AND(a, b): requires a=0 AND b=1 to detect.
  const Netlist n =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = AND(a, b)\n");
  LogicSimulator sim(n);
  FaultSimulator fsim(sim);
  PatternBatch batch(2);
  batch[0] = 0b1010;  // a
  batch[1] = 0b1100;  // b
  std::vector<std::uint64_t> values;
  sim.simulate(batch, values);
  const std::uint64_t word =
      fsim.detect_word(Fault{by_name(n, "a"), true}, values);
  EXPECT_EQ(word & 0xF, 0b0100u);  // only pattern a=0,b=1
}

TEST(FaultSim, DffCapturesFaultEffect) {
  const Netlist n =
      read_bench_string("INPUT(a)\nq = DFF(a)\nOUTPUT(q)\n");
  LogicSimulator sim(n);
  FaultSimulator fsim(sim);
  PatternBatch batch(2);
  batch[0] = 0b01;  // a
  batch[1] = 0;     // q scan value (irrelevant)
  std::vector<std::uint64_t> values;
  sim.simulate(batch, values);
  // a sa0: detected where a == 1 via the scan capture.
  const std::uint64_t word =
      fsim.detect_word(Fault{by_name(n, "a"), false}, values);
  EXPECT_EQ(word & 0x3, 0b01u);
}

TEST(FaultSim, ObserveWordAlwaysExcited) {
  const Netlist n =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = AND(a, b)\n");
  LogicSimulator sim(n);
  FaultSimulator fsim(sim);
  PatternBatch batch(2);
  batch[0] = 0b1010;  // a
  batch[1] = 0b1100;  // b
  std::vector<std::uint64_t> values;
  sim.simulate(batch, values);
  // A change at a is seen at g exactly when b == 1.
  EXPECT_EQ(fsim.observe_word(by_name(n, "a"), values) & 0xF, 0b1100u);
  // A change at g is always seen.
  EXPECT_EQ(fsim.observe_word(by_name(n, "g"), values) & 0xF, 0b1111u);
}

/// Brute force: full re-simulation with `node`'s value forced to `forced`.
std::uint64_t brute_force_word(const LogicSimulator& sim,
                               const PatternBatch& batch, NodeId node,
                               std::uint64_t forced,
                               const std::vector<std::uint64_t>& good) {
  const Netlist& n = sim.netlist();
  std::vector<std::uint64_t> faulty(n.size(), 0);
  for (std::size_t i = 0; i < sim.sources().size(); ++i) {
    faulty[sim.sources()[i]] = batch[i];
  }
  for (NodeId v : sim.order()) {
    if (!is_source(n.type(v))) faulty[v] = sim.evaluate(v, faulty);
    if (v == node) faulty[v] = forced;
  }
  std::uint64_t detected = 0;
  for (NodeId s : sim.sinks()) {
    const NodeId driver = n.fanins(s).front();
    detected |= faulty[driver] ^ good[driver];
  }
  return detected;
}

std::uint64_t brute_force_detect(const LogicSimulator& sim,
                                 const PatternBatch& batch,
                                 const Fault& fault,
                                 const std::vector<std::uint64_t>& good) {
  return brute_force_word(sim, batch, fault.node,
                          fault.stuck_at_one ? ~0ULL : 0ULL, good);
}

TEST(FaultSim, MatchesBruteForceOnGeneratedCircuit) {
  GeneratorConfig config;
  config.seed = 55;
  config.target_gates = 250;
  config.primary_inputs = 12;
  config.primary_outputs = 6;
  config.flip_flops = 8;
  const Netlist n = generate_circuit(config);
  ASSERT_TRUE(n.validate().empty());

  LogicSimulator sim(n);
  FaultSimulator fsim(sim);
  Rng rng(99);
  const auto faults = enumerate_faults(n);

  for (int trial = 0; trial < 3; ++trial) {
    const PatternBatch batch = sim.random_batch(rng);
    std::vector<std::uint64_t> good;
    sim.simulate(batch, good);
    for (std::size_t i = 0; i < faults.size(); i += 7) {
      const std::uint64_t fast = fsim.detect_word(faults[i], good);
      const std::uint64_t brute =
          brute_force_detect(sim, batch, faults[i], good);
      EXPECT_EQ(fast, brute) << "fault node " << faults[i].node << " sa"
                             << faults[i].stuck_at_one;
    }
  }
}

// The bounded probe may stop early, but only once `bound` patterns observe
// the change: the result is a subset of the full word, has at least
// `bound` bits when the full word does, and is the full word otherwise.
TEST(FaultSim, BoundedObserveWordContract) {
  GeneratorConfig config;
  config.seed = 57;
  config.target_gates = 300;
  config.primary_inputs = 12;
  config.primary_outputs = 6;
  config.flip_flops = 8;
  const Netlist n = generate_circuit(config);
  ASSERT_TRUE(n.validate().empty());

  LogicSimulator sim(n);
  FaultSimulator fsim(sim);
  Rng rng(17);
  std::size_t stopped_early = 0;
  for (int trial = 0; trial < 2; ++trial) {
    const PatternBatch batch = sim.random_batch(rng);
    std::vector<std::uint64_t> good;
    sim.simulate(batch, good);
    for (NodeId v = 0; v < n.size(); ++v) {
      const std::uint64_t full =
          brute_force_word(sim, batch, v, ~good[v], good);  // inversion
      // The default bound is today's full probe, bit for bit.
      ASSERT_EQ(fsim.observe_word(v, good), full) << "node " << v;
      ASSERT_EQ(fsim.observe_word(v, good, 64), full) << "node " << v;
      for (const int bound : {1, 2, 3, 8, 31, 63}) {
        const std::uint64_t word = fsim.observe_word(v, good, bound);
        EXPECT_EQ(word & ~full, 0u) << "node " << v << " bound " << bound;
        if (std::popcount(full) >= bound) {
          EXPECT_GE(std::popcount(word), bound)
              << "node " << v << " bound " << bound;
          stopped_early += word != full ? 1 : 0;
        } else {
          EXPECT_EQ(word, full) << "node " << v << " bound " << bound;
        }
      }
    }
  }
  // The early stop really happens on this design.
  EXPECT_GT(stopped_early, 0u);
}

TEST(FaultSim, RunBatchDropsDetectedFaults) {
  const Netlist n =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = AND(a, b)\n");
  LogicSimulator sim(n);
  FaultSimulator fsim(sim);
  const auto faults = enumerate_faults(n);
  std::vector<bool> detected(faults.size(), false);
  std::vector<std::uint64_t> words;
  PatternBatch batch(2);
  batch[0] = 0b1010;  // a
  batch[1] = 0b1100;  // b
  const std::size_t newly = fsim.run_batch(batch, faults, detected, words);
  EXPECT_EQ(newly, faults.size());  // all four patterns present: everything falls
  // Second batch: nothing new.
  EXPECT_EQ(fsim.run_batch(batch, faults, detected, words), 0u);
}

TEST(FaultSim, ParallelMatchesSerialRunBatch) {
  GeneratorConfig config;
  config.seed = 61;
  config.target_gates = 400;
  config.primary_inputs = 16;
  config.primary_outputs = 8;
  config.flip_flops = 10;
  const Netlist n = generate_circuit(config);
  ASSERT_TRUE(n.validate().empty());

  LogicSimulator sim(n);
  FaultSimulator serial(sim);
  ParallelFaultSimulator parallel(sim);
  const auto faults = enumerate_faults(n);
  Rng rng(5);

  std::vector<bool> det_serial(faults.size(), false);
  std::vector<bool> det_parallel(faults.size(), false);
  std::vector<std::uint64_t> words_serial, words_parallel;
  set_kernel_threads(4);
  for (int trial = 0; trial < 3; ++trial) {
    Rng rng_copy = rng;  // same patterns for both engines
    const PatternBatch batch = sim.random_batch(rng);
    const PatternBatch batch_copy = sim.random_batch(rng_copy);
    const std::size_t newly_serial =
        serial.run_batch(batch, faults, det_serial, words_serial);
    const std::size_t newly_parallel =
        parallel.run_batch(batch_copy, faults, det_parallel, words_parallel);
    EXPECT_EQ(newly_serial, newly_parallel);
    EXPECT_EQ(words_serial, words_parallel);
  }
  EXPECT_EQ(det_serial, det_parallel);
  set_kernel_threads(0);
}

TEST(LogicSim, DuplicateFaninSemantics) {
  // g = XOR(a, a) is constant 0; engines must handle repeated drivers.
  const Netlist n =
      read_bench_string("INPUT(a)\nOUTPUT(g)\ng = XOR(a, a)\n");
  LogicSimulator sim(n);
  PatternBatch batch{0b01};
  std::vector<std::uint64_t> values;
  sim.simulate(batch, values);
  NodeId g = kInvalidNode;
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.node_name(v) == "g") g = v;
  }
  EXPECT_EQ(values[g] & 0x3, 0u);
}

TEST(FaultList, EnumerateSkipsPins) {
  const Netlist n =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = AND(a, b)\n");
  const auto faults = enumerate_faults(n);
  // a, b, g each get sa0+sa1; the OUTPUT pseudo-node carries none.
  EXPECT_EQ(faults.size(), 6u);
}

TEST(FaultList, SampleIsDeterministicAndBounded) {
  GeneratorConfig config;
  config.seed = 77;
  config.target_gates = 120;
  const Netlist n = generate_circuit(config);
  const auto s1 = sample_faults(n, 40, 5);
  const auto s2 = sample_faults(n, 40, 5);
  ASSERT_EQ(s1.size(), 40u);
  EXPECT_TRUE(s1 == s2);
  EXPECT_EQ(sample_faults(n, 1 << 24, 5).size(), enumerate_faults(n).size());
}

}  // namespace
}  // namespace gcnt
