// Structural Verilog reader/writer, and a differential test of the
// reader against the one it replaced.

#include <gtest/gtest.h>

#include <cctype>
#include <istream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/error.h"
#include "gen/generator.h"
#include "netlist/verilog_io.h"
#include "netlist_diff.h"
#include "sim/logic_sim.h"

namespace gcnt {
namespace {

/// The stream-at-a-time reader that read_verilog replaced, kept verbatim
/// as the oracle of the differential tests below.
namespace oracle {

struct Token {
  std::string text;
  int line = 0;
};

[[noreturn]] void fail(int line, const std::string& message) {
  throw Error(ErrorKind::kCorrupt,
              "verilog parse error at line " + std::to_string(line) + ": " +
                  message);
}

/// Lexer: identifiers/keywords and single-char punctuation; comments and
/// whitespace removed.
std::vector<Token> tokenize(std::istream& in) {
  std::vector<Token> tokens;
  std::string text;
  int line = 1;
  bool in_line_comment = false;
  bool in_block_comment = false;
  char c = 0, prev = 0;

  const auto flush = [&] {
    if (!text.empty()) {
      tokens.push_back(Token{text, line});
      text.clear();
    }
  };

  while (in.get(c)) {
    if (c == '\n') {
      in_line_comment = false;
      flush();
      ++line;
      prev = c;
      continue;
    }
    if (in_line_comment) {
      prev = c;
      continue;
    }
    if (in_block_comment) {
      if (prev == '*' && c == '/') in_block_comment = false;
      prev = c;
      continue;
    }
    if (c == '/' && in.peek() == '/') {
      flush();
      in_line_comment = true;
      prev = c;
      continue;
    }
    if (c == '/' && in.peek() == '*') {
      flush();
      in_block_comment = true;
      in.get(prev);  // consume '*' so "/*/" doesn't close immediately
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      flush();
    } else if (c == '(' || c == ')' || c == ',' || c == ';' || c == '=') {
      flush();
      tokens.push_back(Token{std::string(1, c), line});
    } else {
      text += c;
    }
    prev = c;
  }
  flush();
  return tokens;
}

bool primitive_type(const std::string& word, CellType& out) {
  if (word == "and") out = CellType::kAnd;
  else if (word == "or") out = CellType::kOr;
  else if (word == "nand") out = CellType::kNand;
  else if (word == "nor") out = CellType::kNor;
  else if (word == "xor") out = CellType::kXor;
  else if (word == "xnor") out = CellType::kXnor;
  else if (word == "not") out = CellType::kNot;
  else if (word == "buf") out = CellType::kBuf;
  else if (word == "dff") out = CellType::kDff;
  else return false;
  return true;
}

struct Instance {
  CellType type;
  std::vector<std::string> ports;  // output first
  int line;
};

Netlist read_verilog(std::istream& in, std::string fallback_name) {
  const auto tokens = tokenize(in);
  std::size_t at = 0;

  const auto peek = [&]() -> const Token& {
    static const Token eof{"<eof>", 0};
    return at < tokens.size() ? tokens[at] : eof;
  };
  const auto next = [&]() -> const Token& {
    if (at >= tokens.size()) fail(tokens.empty() ? 0 : tokens.back().line,
                                  "unexpected end of file");
    return tokens[at++];
  };
  const auto expect = [&](const std::string& want) {
    const Token& token = next();
    if (token.text != want) {
      fail(token.line, "expected '" + want + "', got '" + token.text + "'");
    }
  };
  const auto identifier_list = [&](std::vector<Token>& out) {
    for (;;) {
      out.push_back(next());
      if (peek().text == ",") {
        ++at;
        continue;
      }
      break;
    }
  };

  // --- module header.
  expect("module");
  std::string module_name = next().text;
  if (module_name.empty()) module_name = std::move(fallback_name);
  if (peek().text == "(") {
    ++at;
    if (peek().text != ")") {
      std::vector<Token> ignored;
      identifier_list(ignored);  // port order is re-derived from directions
    }
    expect(")");
  }
  expect(";");

  // --- body.
  std::vector<Token> inputs, outputs, wires;
  std::vector<Instance> instances;
  std::vector<std::pair<Token, Token>> assigns;  // lhs = rhs

  for (;;) {
    const Token token = next();
    if (token.text == "endmodule") break;
    if (token.text == "input") {
      identifier_list(inputs);
      expect(";");
    } else if (token.text == "output") {
      identifier_list(outputs);
      expect(";");
    } else if (token.text == "wire") {
      identifier_list(wires);
      expect(";");
    } else if (token.text == "assign") {
      const Token lhs = next();
      expect("=");
      const Token rhs = next();
      expect(";");
      assigns.emplace_back(lhs, rhs);
    } else {
      CellType type;
      if (!primitive_type(token.text, type)) {
        fail(token.line, "unknown statement or primitive '" + token.text + "'");
      }
      Instance instance;
      instance.type = type;
      instance.line = token.line;
      Token maybe_name = next();
      if (maybe_name.text != "(") {
        expect("(");  // consumed the instance name
      }
      std::vector<Token> ports;
      identifier_list(ports);
      expect(")");
      expect(";");
      for (const Token& port : ports) instance.ports.push_back(port.text);
      if (instance.ports.size() < 2) {
        fail(instance.line, "primitive needs an output and at least one input");
      }
      instances.push_back(std::move(instance));
    }
  }

  // --- build the graph. Inputs become kInput nodes; every instance output
  // becomes a node of the primitive's type; outputs get PO sink nodes.
  Netlist netlist(module_name);
  std::unordered_map<std::string, NodeId> signal;
  std::unordered_set<std::string> declared;
  for (const Token& t : wires) declared.insert(t.text);
  for (const Token& t : outputs) declared.insert(t.text);

  for (const Token& t : inputs) {
    if (signal.count(t.text)) fail(t.line, "redefinition of " + t.text);
    signal.emplace(t.text, netlist.add_node(CellType::kInput, t.text));
  }
  for (const Instance& instance : instances) {
    const std::string& out_signal = instance.ports.front();
    if (!declared.count(out_signal) && !signal.count(out_signal)) {
      fail(instance.line, "undeclared net " + out_signal);
    }
    if (signal.count(out_signal)) {
      fail(instance.line, "multiple drivers for " + out_signal);
    }
    signal.emplace(out_signal, netlist.add_node(instance.type, out_signal));
  }
  for (const auto& [lhs, rhs] : assigns) {
    if (!declared.count(lhs.text) && !signal.count(lhs.text)) {
      fail(lhs.line, "undeclared net " + lhs.text);
    }
    if (signal.count(lhs.text)) fail(lhs.line, "multiple drivers for " + lhs.text);
    signal.emplace(lhs.text, netlist.add_node(CellType::kBuf, lhs.text));
  }

  const auto resolve = [&](const std::string& name, int line) -> NodeId {
    const auto it = signal.find(name);
    if (it == signal.end()) fail(line, "undriven net " + name);
    return it->second;
  };

  for (const Instance& instance : instances) {
    const NodeId gate = signal.at(instance.ports.front());
    const int arity = static_cast<int>(instance.ports.size()) - 1;
    if (arity < min_fanin(instance.type) || arity > max_fanin(instance.type)) {
      fail(instance.line, "illegal port count for primitive");
    }
    for (std::size_t p = 1; p < instance.ports.size(); ++p) {
      netlist.connect(resolve(instance.ports[p], instance.line), gate);
    }
  }
  for (const auto& [lhs, rhs] : assigns) {
    netlist.connect(resolve(rhs.text, rhs.line), signal.at(lhs.text));
  }
  for (const Token& t : outputs) {
    const NodeId po = netlist.add_node(CellType::kOutput, "out_" + t.text);
    netlist.connect(resolve(t.text, t.line), po);
  }
  return netlist;
}

Netlist read_verilog_string(const std::string& text,
                            std::string fallback_name) {
  std::istringstream in(text);
  return read_verilog(in, std::move(fallback_name));
}

}  // namespace oracle

constexpr const char* kSample = R"(
// a tiny design
module sample (a, b, c, y, z);
  input a, b;
  input c;
  output y, z;
  wire w1, w2;  /* internal nets */
  nand g1 (w1, a, b);
  xor  g2 (w2, w1, c);
  not  g3 (y, w2);
  assign z = w1;
endmodule
)";

NodeId by_name(const Netlist& n, const std::string& name) {
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.node_name(v) == name) return v;
  }
  ADD_FAILURE() << "node not found: " << name;
  return kInvalidNode;
}

TEST(VerilogIo, ParsesSample) {
  const Netlist n = read_verilog_string(kSample);
  EXPECT_EQ(n.name(), "sample");
  EXPECT_EQ(n.primary_inputs().size(), 3u);
  EXPECT_EQ(n.primary_outputs().size(), 2u);
  EXPECT_TRUE(n.validate().empty());
  EXPECT_EQ(n.type(by_name(n, "w1")), CellType::kNand);
  EXPECT_EQ(n.type(by_name(n, "w2")), CellType::kXor);
  EXPECT_EQ(n.type(by_name(n, "z")), CellType::kBuf);  // assign alias
}

TEST(VerilogIo, InstanceNamesOptional) {
  const Netlist n = read_verilog_string(R"(
module m (a, y);
  input a;
  output y;
  not (y, a);
endmodule
)");
  EXPECT_TRUE(n.validate().empty());
  EXPECT_EQ(n.type(by_name(n, "y")), CellType::kNot);
}

TEST(VerilogIo, DffSupported) {
  const Netlist n = read_verilog_string(R"(
module m (d, q);
  input d;
  output q;
  dff ff0 (q, d);
endmodule
)");
  EXPECT_EQ(n.flip_flops().size(), 1u);
  EXPECT_TRUE(n.validate().empty());
}

TEST(VerilogIo, CommentsStripped) {
  const Netlist n = read_verilog_string(
      "module m (a, y); // ports\n input a; /* multi\nline */ output y;\n"
      "buf g (y, a);\nendmodule\n");
  EXPECT_TRUE(n.validate().empty());
}

TEST(VerilogIo, ErrorsCarryLineNumbers) {
  try {
    read_verilog_string("module m (a);\n input a;\n frob g (x, a);\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(VerilogIo, UndeclaredNetThrows) {
  EXPECT_THROW(read_verilog_string(
                   "module m (a, y);\n input a;\n output y;\n"
                   "and g (y, a, ghost);\nendmodule\n"),
               std::runtime_error);
}

TEST(VerilogIo, MultipleDriversThrow) {
  EXPECT_THROW(read_verilog_string(
                   "module m (a, y);\n input a;\n output y;\n"
                   "buf g1 (y, a);\n buf g2 (y, a);\nendmodule\n"),
               std::runtime_error);
}

TEST(VerilogIo, MissingSemicolonThrows) {
  EXPECT_THROW(
      read_verilog_string("module m (a, y);\n input a\n output y;\n"),
      std::runtime_error);
}

/// Simulates both netlists on the same named stimulus and compares POs.
void expect_equivalent(const Netlist& a, const Netlist& b,
                       std::uint64_t seed) {
  LogicSimulator sim_a(a);
  LogicSimulator sim_b(b);
  ASSERT_EQ(sim_a.sources().size(), sim_b.sources().size());

  Rng rng(seed);
  const PatternBatch batch_a = sim_a.random_batch(rng);
  std::map<std::string_view, std::uint64_t> stimulus;
  for (std::size_t i = 0; i < sim_a.sources().size(); ++i) {
    stimulus[a.node_name(sim_a.sources()[i])] = batch_a[i];
  }
  PatternBatch batch_b(sim_b.sources().size());
  for (std::size_t i = 0; i < sim_b.sources().size(); ++i) {
    batch_b[i] = stimulus.at(b.node_name(sim_b.sources()[i]));
  }

  std::vector<std::uint64_t> values_a, values_b;
  sim_a.simulate(batch_a, values_a);
  sim_b.simulate(batch_b, values_b);
  // Primary outputs correspond positionally (writer preserves order).
  ASSERT_EQ(a.primary_outputs().size(), b.primary_outputs().size());
  for (std::size_t i = 0; i < a.primary_outputs().size(); ++i) {
    const NodeId pa = a.primary_outputs()[i];
    const NodeId pb = b.primary_outputs()[i];
    EXPECT_EQ(values_a[a.fanins(pa).front()], values_b[b.fanins(pb).front()]);
  }
}

TEST(VerilogIo, RoundTripPreservesBehavior) {
  const Netlist original = read_verilog_string(kSample);
  const Netlist reparsed =
      read_verilog_string(write_verilog_string(original), "rt");
  EXPECT_TRUE(reparsed.validate().empty());
  expect_equivalent(original, reparsed, 11);
}

TEST(VerilogIo, GeneratedCircuitRoundTrip) {
  GeneratorConfig config;
  config.seed = 77;
  config.target_gates = 300;
  config.primary_inputs = 10;
  config.primary_outputs = 5;
  config.flip_flops = 8;
  const Netlist original = generate_circuit(config);
  const Netlist reparsed =
      read_verilog_string(write_verilog_string(original), "rt");
  EXPECT_TRUE(reparsed.validate().empty());
  expect_equivalent(original, reparsed, 13);
}

TEST(VerilogIo, ObservePointsBecomeOutputs) {
  Netlist n = read_verilog_string(kSample);
  n.insert_observe_point(by_name(n, "w1"));
  const std::string text = write_verilog_string(n);
  EXPECT_NE(text.find("observation point"), std::string::npos);
  const Netlist reparsed = read_verilog_string(text, "rt");
  // The OP re-reads as an ordinary module output — same observability.
  EXPECT_EQ(reparsed.primary_outputs().size(), n.primary_outputs().size() + 1);
}

// --- differential: the reader against the oracle, field by field.

ParseOutcome read_new(const std::string& text) {
  return parse_outcome([&] { return read_verilog_string(text, "d"); });
}

ParseOutcome read_old(const std::string& text) {
  return parse_outcome([&] { return oracle::read_verilog_string(text, "d"); });
}

TEST(VerilogIoDiff, GeneratedDesignsMatchOracle) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    for (const std::size_t gates : {100, 1000, 5000, 20000}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", gates " +
                   std::to_string(gates));
      GeneratorConfig config;
      config.seed = seed;
      config.target_gates = gates;
      config.flip_flops = gates / 24;
      Netlist design = generate_circuit(config);
      for (NodeId v = 0; v < design.size(); v += 97) {
        if (design.can_observe(v)) design.insert_observe_point(v);
      }
      const std::string text = write_verilog_string(design);
      const ParseOutcome want = read_old(text);
      ASSERT_TRUE(want.netlist.has_value()) << want.message;
      expect_same_outcome(read_new(text), want);
    }
  }
}

TEST(VerilogIoDiff, AcceptedEdgeCasesMatchOracle) {
  const std::string cases[] = {
      kSample,
      "module m (a, y);\r\n\tinput a;\r\n\toutput y;\r\n"
      "\tnot g (y, a);\r\nendmodule\r\n",  // CRLF and tabs
      "module m(a,y);input a;output y;not(y,a);endmodule",  // no spaces
      "module m (a, y); /*/ input a; output y; buf g (y, a); endmodule",
      "module m (a, y); input a; // output z;\n output y; buf (y, a);\n"
      "endmodule // trailing",
      "module m (a, y);\n/* multi\nline\ncomment */ input a;\n"
      "output y;\nbuf g (y, a);\nendmodule",
      "module m; endmodule",
      "module m (); input a; endmodule",
      "module m (a, y); input a; output y; assign y = a; endmodule",
      "module m (d, q); input d; output q; dff f (q, d); endmodule",
      "module m (a, b, y); input a, b; output y; wire w, w;\n"
      "and g1 (w, a, b, a); or g2 (y, w, w); endmodule",
      "module m (a, y); input a; output y; buf g (y, a); endmodule junk",
      "module m (a, y); input a; output y, y; buf g (y, a); endmodule",
  };
  for (const std::string& text : cases) {
    SCOPED_TRACE(text);
    const ParseOutcome want = read_old(text);
    ASSERT_TRUE(want.netlist.has_value()) << want.message;
    expect_same_outcome(read_new(text), want);
  }
}

TEST(VerilogIoDiff, RejectedEdgeCasesMatchOracle) {
  const std::string cases[] = {
      "",
      "// only a comment\n",
      "modul m; endmodule",
      "module (a, y); input a; output y; buf g (y, a); endmodule",
      "module m (a, y);\n input a;\n frob g (x, a);\n",  // unknown primitive
      "module m (a, y);\n input a;\n output y;\n"
      "and g (y, a, ghost);\nendmodule\n",  // undriven net
      "module m (a, y); input a; and g (x, a, a); endmodule",  // undeclared
      "module m (a, y); input a; output y;\n buf g1 (y, a);\n"
      "buf g2 (y, a);\nendmodule\n",  // multiple drivers
      "module m (a); input a; input a; endmodule",  // redefinition
      "module m (a, y); input a; output y; assign y = a; assign y = a;\n"
      "endmodule",
      "module m (a, y); input a; output y; assign z = a; endmodule",
      "module m (a, y); input a; output y; not g (y, a, a); endmodule",
      "module m (a, y); input a; output y; and g (y, a); endmodule",
      "module m (a, y); input a; output y; buf g (y); endmodule",
      "module m (a, y);\n input a\n output y;\n",  // missing semicolon
      "module m (a, y); input a; output y; buf g (y, a)",  // unexpected eof
      "module m (a, y); input a; output y; buf g y, a); endmodule",
      "module m (a, y) input a;",
      "module m (a, y); input a; output y; assign y a; endmodule",
      "module m (a, y); /* never closed\n input a; endmodule",
  };
  for (const std::string& text : cases) {
    SCOPED_TRACE(text);
    const ParseOutcome want = read_old(text);
    ASSERT_EQ(want.kind, ErrorKind::kCorrupt);
    expect_same_outcome(read_new(text), want);
  }
}

TEST(VerilogIoDiff, MutatedTextMatchesOracle) {
  GeneratorConfig config;
  config.seed = 99;
  config.target_gates = 150;
  config.primary_inputs = 8;
  config.primary_outputs = 4;
  config.flip_flops = 6;
  const std::string base = write_verilog_string(generate_circuit(config));
  std::size_t accepted = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 31 + 7);
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

TEST(VerilogIoDiff, StreamAndStringReadersAgree) {
  GeneratorConfig config;
  config.seed = 5;
  config.target_gates = 800;
  const std::string text = write_verilog_string(generate_circuit(config));
  std::istringstream in(text);
  expect_same_netlist(read_verilog(in, "d"), read_verilog_string(text, "d"));
}

}  // namespace
}  // namespace gcnt
