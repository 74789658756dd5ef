// .bench reader/writer: parsing, error reporting, round-trips, and a
// differential test of the reader against the line-based reader it
// replaced.

#include <gtest/gtest.h>

#include <cctype>
#include <istream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "gen/generator.h"
#include "netlist/bench_io.h"
#include "netlist_diff.h"

namespace gcnt {
namespace {

/// The line-based reader that read_bench replaced, kept verbatim as the
/// oracle of the differential tests below.
namespace oracle {

struct PendingGate {
  std::string lhs;
  CellType type = CellType::kBuf;
  std::vector<std::string> operands;
  int line = 0;
};

[[noreturn]] void fail(int line, const std::string& message) {
  throw Error(ErrorKind::kCorrupt, "bench parse error at line " +
                                       std::to_string(line) + ": " + message);
}

std::string strip(const std::string& text) {
  std::size_t begin = 0, end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return text.substr(begin, end - begin);
}

/// Splits "FUNC(a, b, c)" into FUNC and {a,b,c}; returns false on mismatch.
bool split_call(const std::string& text, std::string& func,
                std::vector<std::string>& args) {
  const std::size_t open = text.find('(');
  const std::size_t close = text.rfind(')');
  if (open == std::string::npos || close == std::string::npos || close < open)
    return false;
  func = strip(text.substr(0, open));
  args.clear();
  std::string inner = text.substr(open + 1, close - open - 1);
  std::size_t start = 0;
  while (start <= inner.size()) {
    const std::size_t comma = inner.find(',', start);
    const std::string piece =
        strip(comma == std::string::npos ? inner.substr(start)
                                         : inner.substr(start, comma - start));
    if (!piece.empty()) args.push_back(piece);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return !func.empty();
}

Netlist read_bench(std::istream& in, std::string design_name) {
  Netlist netlist(std::move(design_name));
  std::unordered_map<std::string, NodeId> signals;
  std::vector<PendingGate> gates;
  std::vector<std::pair<std::string, int>> outputs;   // signal, line
  std::vector<std::pair<std::string, int>> observes;  // signal, line

  std::string raw;
  int line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = strip(raw);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      std::string func;
      std::vector<std::string> args;
      if (!split_call(line, func, args) || args.size() != 1) {
        fail(line_number, "expected INPUT(x) / OUTPUT(x) / OBSERVE(x)");
      }
      for (char& c : func) c = static_cast<char>(std::toupper(c));
      if (func == "INPUT") {
        if (signals.count(args[0])) fail(line_number, "redefinition of " + args[0]);
        signals.emplace(args[0],
                        netlist.add_node(CellType::kInput, args[0]));
      } else if (func == "OUTPUT") {
        outputs.emplace_back(args[0], line_number);
      } else if (func == "OBSERVE") {
        observes.emplace_back(args[0], line_number);
      } else {
        fail(line_number, "unknown directive " + func);
      }
      continue;
    }

    PendingGate gate;
    gate.lhs = strip(line.substr(0, eq));
    gate.line = line_number;
    std::string func;
    if (!split_call(strip(line.substr(eq + 1)), func, gate.operands)) {
      fail(line_number, "expected <name> = GATE(args)");
    }
    if (!parse_cell_type(func, gate.type)) {
      fail(line_number, "unknown gate type " + func);
    }
    if (!is_logic(gate.type) && gate.type != CellType::kDff) {
      fail(line_number, "gate type " + func + " not allowed on assignment");
    }
    if (gate.lhs.empty()) fail(line_number, "missing signal name");
    if (signals.count(gate.lhs)) fail(line_number, "redefinition of " + gate.lhs);
    signals.emplace(gate.lhs, netlist.add_node(gate.type, gate.lhs));
    gates.push_back(std::move(gate));
  }

  const auto resolve = [&](const std::string& name, int line) -> NodeId {
    const auto it = signals.find(name);
    if (it == signals.end()) fail(line, "undefined signal " + name);
    return it->second;
  };

  for (const auto& gate : gates) {
    const NodeId lhs = signals.at(gate.lhs);
    const int arity = static_cast<int>(gate.operands.size());
    if (arity < min_fanin(gate.type) || arity > max_fanin(gate.type)) {
      fail(gate.line, "illegal operand count for " +
                          std::string(cell_type_name(gate.type)));
    }
    for (const auto& operand : gate.operands) {
      netlist.connect(resolve(operand, gate.line), lhs);
    }
  }
  for (const auto& [signal, line] : outputs) {
    const NodeId po = netlist.add_node(CellType::kOutput, "out_" + signal);
    netlist.connect(resolve(signal, line), po);
  }
  for (const auto& [signal, line] : observes) {
    const NodeId op = netlist.add_node(CellType::kObserve, "op_" + signal);
    netlist.connect(resolve(signal, line), op);
  }
  return netlist;
}

Netlist read_bench_string(const std::string& text, std::string design_name) {
  std::istringstream in(text);
  return read_bench(in, std::move(design_name));
}

}  // namespace oracle


constexpr const char* kC17 = R"(# ISCAS-85 c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
)";

TEST(BenchIo, ParsesC17) {
  const Netlist n = read_bench_string(kC17, "c17");
  EXPECT_EQ(n.primary_inputs().size(), 5u);
  EXPECT_EQ(n.primary_outputs().size(), 2u);
  EXPECT_EQ(n.size(), 5u + 2u + 6u);
  EXPECT_TRUE(n.validate().empty());
}

TEST(BenchIo, SignalNamesPreserved) {
  const Netlist n = read_bench_string(kC17);
  bool found = false;
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.node_name(v) == "G22") {
      found = true;
      EXPECT_EQ(n.type(v), CellType::kNand);
      EXPECT_EQ(n.fanins(v).size(), 2u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(BenchIo, RoundTripIsIsomorphic) {
  const Netlist original = read_bench_string(kC17, "c17");
  const Netlist reparsed =
      read_bench_string(write_bench_string(original), "c17rt");
  EXPECT_EQ(reparsed.size(), original.size());
  EXPECT_EQ(reparsed.edge_count(), original.edge_count());
  EXPECT_EQ(reparsed.primary_inputs().size(),
            original.primary_inputs().size());
  EXPECT_EQ(reparsed.primary_outputs().size(),
            original.primary_outputs().size());
  EXPECT_TRUE(reparsed.validate().empty());
}

TEST(BenchIo, DffSupported) {
  const Netlist n = read_bench_string(R"(
INPUT(a)
OUTPUT(q)
q = DFF(a)
)");
  EXPECT_EQ(n.flip_flops().size(), 1u);
  EXPECT_TRUE(n.validate().empty());
}

TEST(BenchIo, ObserveExtensionRoundTrips) {
  Netlist n = read_bench_string(kC17, "c17");
  // Observe G10's output.
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.node_name(v) == "G10") {
      n.insert_observe_point(v);
      break;
    }
  }
  const Netlist reparsed = read_bench_string(write_bench_string(n));
  EXPECT_EQ(reparsed.observe_points().size(), 1u);
  EXPECT_TRUE(reparsed.validate().empty());
}

TEST(BenchIo, CommentsAndBlanksIgnored) {
  const Netlist n = read_bench_string(R"(
# leading comment

INPUT(a)   # trailing comment
INPUT(b)
OUTPUT(y)

y = AND(a, b)
)");
  EXPECT_EQ(n.size(), 4u);
}

TEST(BenchIo, BuffAliasAccepted) {
  const Netlist n = read_bench_string(R"(
INPUT(a)
OUTPUT(y)
y = BUFF(a)
)");
  EXPECT_TRUE(n.validate().empty());
}

TEST(BenchIo, UndefinedSignalThrows) {
  EXPECT_THROW(read_bench_string("INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)\n"),
               std::runtime_error);
}

TEST(BenchIo, RedefinitionThrows) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nINPUT(a)\n"), std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT(a)\na = NOT(a)\n"),
               std::runtime_error);
}

TEST(BenchIo, UnknownGateThrows) {
  EXPECT_THROW(read_bench_string("INPUT(a)\ny = MAJ3(a, a, a)\n"),
               std::runtime_error);
}

TEST(BenchIo, BadArityThrows) {
  EXPECT_THROW(read_bench_string("INPUT(a)\ny = AND(a)\n"),
               std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nINPUT(b)\ny = NOT(a, b)\n"),
               std::runtime_error);
}

TEST(BenchIo, MalformedLineThrows) {
  EXPECT_THROW(read_bench_string("WIBBLE\n"), std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT a\n"), std::runtime_error);
}

TEST(BenchIo, ErrorMessageCarriesLineNumber) {
  try {
    read_bench_string("INPUT(a)\n\ny = AND(a, ghost)\nOUTPUT(y)\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

// --- differential: the reader against the oracle, field by field.

ParseOutcome read_new(const std::string& text) {
  return parse_outcome([&] { return read_bench_string(text, "d"); });
}

ParseOutcome read_old(const std::string& text) {
  return parse_outcome([&] { return oracle::read_bench_string(text, "d"); });
}

TEST(BenchIoDiff, GeneratedDesignsMatchOracle) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    for (const std::size_t gates : {100, 1000, 5000, 20000}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", gates " +
                   std::to_string(gates));
      GeneratorConfig config;
      config.seed = seed;
      config.target_gates = gates;
      config.flip_flops = gates / 24;
      Netlist design = generate_circuit(config);
      // A few observation points, so OBSERVE lines are read back too.
      for (NodeId v = 0; v < design.size(); v += 97) {
        if (design.can_observe(v)) design.insert_observe_point(v);
      }
      const std::string text = write_bench_string(design);
      const ParseOutcome want = read_old(text);
      ASSERT_TRUE(want.netlist.has_value()) << want.message;
      expect_same_outcome(read_new(text), want);
    }
  }
}

TEST(BenchIoDiff, AcceptedEdgeCasesMatchOracle) {
  using namespace std::string_literals;
  const std::string cases[] = {
      "INPUT(a)\r\nINPUT(b)\r\nOUTPUT(y)\r\ny = AND(a, b)\r\n",  // CRLF
      "\tINPUT(\ta\t)\nOUTPUT(y)\t\ny\t=\tNOT(\ta)\n",            // tabs
      "\vINPUT(\va\f)\f\nOUTPUT(y)\ny = NOT( a\r)\n",  // C-locale spaces
      "INPUT(a) # c\ny = NOT(a) # = AND(x)\nOUTPUT(y)#(\n",  // mid-line #
      "#\n# INPUT(z)\n",                                     // comments only
      "input(a)\nOutput(y)\noBsErVe(a)\ny = not(a)\n",      // any case
      "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n",
      "INPUT(a)\nOUTPUT(y)\ny = buff(a)\n",
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a,,b)\n",  // empty slot
      "INPUT(a)\nOUTPUT(y)\ny = AND(a, a)\n",            // repeated driver
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR( , a , b , )\n",
      "INPUT(a) junk\nOUTPUT(y) x\ny = NOT(a) trailing\n",  // after ')'
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)",                    // no final \n
      "\n\n  \nINPUT(a)\n\n\t\nOUTPUT(y)\n\ny = NOT(a)\n\n",  // blanks
      "OUTPUT(y)\ny = NOT(x)\nx = NOT(a)\nINPUT(a)\n",  // forward refs
      "INPUT(a)\nq = DFF(y)\ny = AND(a, q)\nOUTPUT(y)\nOBSERVE(q)\n",
      "INPUT(a)(b)\nOUTPUT(a)(b)\n",  // first '(' to last ')'
      "INPUT( a b )\nOUTPUT(a b)\n",  // inner spaces are part of a name
      "INPUT(a\0b)\nOUTPUT(a\0b)\n"s,  // NUL in a name
      "INPUT(a)\nOUTPUT(a)\nOUTPUT(a)\n",
      "INPUT(a_name_longer_than_16_bytes)\nINPUT(a_name_longer_than_16_bytez)\n"
      "y = AND(a_name_longer_than_16_bytez, a_name_longer_than_16_bytes)\n"
      "OUTPUT(y)\n",
      "",
  };
  for (const std::string& text : cases) {
    SCOPED_TRACE(text);
    const ParseOutcome want = read_old(text);
    ASSERT_TRUE(want.netlist.has_value()) << want.message;
    expect_same_outcome(read_new(text), want);
  }
}

TEST(BenchIoDiff, RejectedEdgeCasesMatchOracle) {
  const std::string cases[] = {
      "INPUT(a)\ny = MAJ3(a, a, a)\n",          // unknown gate
      "INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)\n",  // undefined signal
      "OUTPUT(ghost)\n",
      "INPUT(a)\nOBSERVE(ghost)\n",
      "INPUT(a)\nINPUT(a)\n",                   // redefinition
      "INPUT(a)\na = NOT(a)\n",
      "INPUT(a)\ny = NOT(a)\ny = BUF(a)\n",
      "INPUT(a_name_longer_than_16_bytes)\nINPUT(a_name_longer_than_16_bytes)\n",
      "INPUT(a)\ny = AND(a)\n",                 // bad arity
      "INPUT(a)\nINPUT(b)\ny = NOT(a, b)\n",
      "INPUT(a)\ny = AND()\n",
      "INPUT(a, b)\n",                           // two directive arguments
      "OUTPUT()\n",
      "WIBBLE(a)\n",                             // unknown directive
      "wibble(a)\n",
      "WIBBLE\n",
      "INPUT a\n",
      "INPUT)a(\n",
      "(a)\n",
      "y = AND a, b\n",
      "y = (a)\n",
      "= AND(a, b)\n",
      "y = INPUT(a)\n",
      "y = OUTPUT(a)\n",
      "y = OBSERVE(a)\n",
      // The first error in the reader's order wins: a redefinition before
      // a malformed line, every gate before any OUTPUT, gates in line
      // order, every OUTPUT before any OBSERVE.
      "INPUT(a)\nINPUT(a)\nWIBBLE\n",
      "INPUT(a)\nWIBBLE\nINPUT(a)\n",
      "OUTPUT(ghost1)\nINPUT(a)\ny = AND(a, ghost2)\n",
      "INPUT(a)\ny = AND(a)\nz = AND(a, ghost)\n",
      "INPUT(a)\nz = AND(a, ghost)\ny = AND(a)\n",
      "INPUT(a)\r\n\r\ny = AND(a, ghost)\r\n",
      "OBSERVE(ghost1)\nOUTPUT(ghost2)\n",
  };
  for (const std::string& text : cases) {
    SCOPED_TRACE(text);
    const ParseOutcome want = read_old(text);
    ASSERT_EQ(want.kind, ErrorKind::kCorrupt);
    expect_same_outcome(read_new(text), want);
  }
}

TEST(BenchIoDiff, MutatedTextMatchesOracle) {
  GeneratorConfig config;
  config.seed = 99;
  config.target_gates = 150;
  config.primary_inputs = 8;
  config.primary_outputs = 4;
  config.flip_flops = 6;
  const std::string base = write_bench_string(generate_circuit(config));
  std::size_t accepted = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    for (int round = 0; round < 40; ++round) {
      std::string text = base;
      for (std::uint64_t k = 1 + rng.below(3); k > 0; --k) {
        text = mutate(text, rng);
      }
      SCOPED_TRACE("seed " + std::to_string(seed) + ", round " +
                   std::to_string(round));
      const ParseOutcome want = read_old(text);
      accepted += want.netlist.has_value();
      expect_same_outcome(read_new(text), want);
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 12u * 40u);
}

TEST(BenchIoDiff, StreamAndStringReadersAgree) {
  GeneratorConfig config;
  config.seed = 5;
  config.target_gates = 800;
  const std::string text = write_bench_string(generate_circuit(config));
  std::istringstream in(text);
  expect_same_netlist(read_bench(in, "d"), read_bench_string(text, "d"));
}

}  // namespace
}  // namespace gcnt
