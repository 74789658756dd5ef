// .bench reader/writer: parsing, error reporting, round-trips, and a
// differential test of the reader against the line-based reader it
// replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <istream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
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

// --- chunked parsing. A text of at least 64 KiB is scanned in one chunk
// per kernel thread: the chunks start at plan_blocks' block boundaries,
// each moved past the next newline. These cases put lines, errors and
// redefinitions at and across those cuts, at 1 and 4 threads.

constexpr std::size_t kChunkThreads = 4;

/// A 20k-gate design's text: large enough to be cut into kChunkThreads
/// chunks.
std::string large_bench_text() {
  GeneratorConfig config;
  config.seed = 21;
  config.target_gates = 20000;
  config.flip_flops = 800;
  return write_bench_string(generate_circuit(config));
}

/// Where the reader's chunk c (>= 1) of `text` nominally starts.
std::size_t nominal_cut(const std::string& text, std::size_t c) {
  set_kernel_threads(kChunkThreads);
  const BlockPlan plan = plan_blocks(text.size(), 1);
  EXPECT_EQ(plan.count, kChunkThreads);
  return plan.begin(c);
}

/// `text` with a comment line of padding after its first line, grown until
/// `fits(padded, nominal_cut(padded, 1))` holds.
template <typename Fits>
std::string pad_until(const std::string& text, Fits fits) {
  const std::size_t after_first = text.find('\n') + 1;
  for (std::size_t pad = 0; pad < 400; ++pad) {
    std::string padded = text;
    padded.insert(after_first, "#" + std::string(pad, ' ') + "\n");
    if (fits(padded, nominal_cut(padded, 1))) return padded;
  }
  ADD_FAILURE() << "no padding puts the cut where wanted";
  return text;
}

/// `text` with `line` inserted at the first line start past the middle of
/// chunk c.
std::string insert_in_chunk(const std::string& text, std::size_t c,
                            const std::string& line) {
  const std::size_t begin = c == 0 ? 0 : nominal_cut(text, c);
  const std::size_t end =
      c + 1 < kChunkThreads ? nominal_cut(text, c + 1) : text.size();
  const std::size_t at = text.find('\n', (begin + end) / 2) + 1;
  return text.substr(0, at) + line + "\n" + text.substr(at);
}

/// The line number of `pos` in `text`.
int line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<int>(std::count(text.begin(), text.begin() + pos, '\n'));
}

/// Reads `text` at 1 and at kChunkThreads threads; both must match the
/// oracle, and the outcome must be `accepted`.
void expect_oracle_at_any_thread_count(const std::string& text, bool accepted) {
  const ParseOutcome want = read_old(text);
  ASSERT_EQ(want.netlist.has_value(), accepted) << want.message;
  for (const std::size_t threads : {std::size_t{1}, kChunkThreads}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    set_kernel_threads(threads);
    expect_same_outcome(read_new(text), want);
  }
  set_kernel_threads(0);
}

TEST(BenchIoDiff, ChunkCutsMatchOracle) {
  const std::string base = large_bench_text();
  ASSERT_GE(base.size(), std::size_t{1} << 18);
  {
    SCOPED_TRACE("a line ends exactly at a cut");
    const std::string text =
        pad_until(base, [](const std::string& t, std::size_t cut) {
          return t[cut - 1] == '\n';
        });
    expect_oracle_at_any_thread_count(text, true);
  }
  std::string crlf;
  for (const char c : base) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  {
    SCOPED_TRACE("CR and LF on both sides of a cut");
    const std::string text =
        pad_until(crlf, [](const std::string& t, std::size_t cut) {
          return t[cut - 1] == '\r' && t[cut] == '\n';
        });
    expect_oracle_at_any_thread_count(text, true);
  }
  {
    SCOPED_TRACE("CRLF ends exactly at a cut");
    const std::string text =
        pad_until(crlf, [](const std::string& t, std::size_t cut) {
          return t[cut - 1] == '\n';
        });
    expect_oracle_at_any_thread_count(text, true);
  }
  {
    SCOPED_TRACE("no final newline");
    ASSERT_EQ(base.back(), '\n');
    expect_oracle_at_any_thread_count(base.substr(0, base.size() - 1), true);
  }
  {
    SCOPED_TRACE("a line longer than a chunk");
    const std::string text = insert_in_chunk(
        base, 1, "# " + std::string(base.size() / 2, 'x'));
    expect_oracle_at_any_thread_count(text, true);
  }
}

TEST(BenchIoDiff, ChunkedErrorsMatchOracle) {
  const std::string base = large_bench_text();
  {
    SCOPED_TRACE("a malformed line in the last chunk");
    const std::string text =
        insert_in_chunk(base, kChunkThreads - 1, "WIBBLE");
    expect_oracle_at_any_thread_count(text, false);
  }
  {
    SCOPED_TRACE("malformed lines in two chunks");
    const std::string text = insert_in_chunk(
        insert_in_chunk(base, 3, "y = MAJ3(pi0, pi1, pi2)"), 1, "INPUT a");
    expect_oracle_at_any_thread_count(text, false);
  }
  {
    SCOPED_TRACE("defined in chunk 0, redefined in chunk 3");
    const std::string text = insert_in_chunk(base, 3, "pi0 = NOT(pi1)");
    const std::size_t at = text.find("pi0 = NOT(pi1)");
    ASSERT_GE(at, nominal_cut(text, 3));
    expect_oracle_at_any_thread_count(text, false);
    EXPECT_NE(read_new(text).message.find(
                  "line " + std::to_string(line_of(text, at)) +
                  ": redefinition of pi0"),
              std::string::npos);
  }
  {
    SCOPED_TRACE("a redefinition in chunk 1 above a malformed line in 2");
    const std::string text = insert_in_chunk(
        insert_in_chunk(base, 2, "WIBBLE(pi0)"), 1, "INPUT(pi1)");
    expect_oracle_at_any_thread_count(text, false);
    EXPECT_NE(read_new(text).message.find("redefinition of pi1"),
              std::string::npos);
  }
  {
    SCOPED_TRACE("a malformed line after thousands of blank lines");
    const std::string text = insert_in_chunk(
        insert_in_chunk(base, 2, "WIBBLE"), 1,
        std::string(5000, '\n') + "#" + std::string(5000, ','));
    expect_oracle_at_any_thread_count(text, false);
  }
  {
    SCOPED_TRACE("undefined operands in two chunks");
    const std::string text = insert_in_chunk(
        insert_in_chunk(base, 3, "late3 = AND(pi0, ghost3)"), 1,
        "late1 = OR(ghost1, pi0)");
    expect_oracle_at_any_thread_count(text, false);
    EXPECT_NE(read_new(text).message.find("undefined signal ghost1"),
              std::string::npos);
  }
  {
    SCOPED_TRACE("an undefined operand in a late chunk behind an OUTPUT");
    const std::string text = insert_in_chunk(
        insert_in_chunk(base, 3, "late = AND(pi0, ghost2)"), 0,
        "OUTPUT(ghost1)");
    expect_oracle_at_any_thread_count(text, false);
    EXPECT_NE(read_new(text).message.find("undefined signal ghost2"),
              std::string::npos);
  }
}

TEST(BenchIoDiff, MutatedLargeTextMatchesOracle) {
  const std::string base = large_bench_text();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    for (int round = 0; round < 6; ++round) {
      std::string text = base;
      for (std::uint64_t k = 1 + rng.below(3); k > 0; --k) {
        text = mutate(text, rng);
      }
      SCOPED_TRACE("seed " + std::to_string(seed) + ", round " +
                   std::to_string(round));
      const ParseOutcome want = read_old(text);
      for (const std::size_t threads : {std::size_t{1}, kChunkThreads}) {
        set_kernel_threads(threads);
        expect_same_outcome(read_new(text), want);
      }
    }
  }
  set_kernel_threads(0);
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
