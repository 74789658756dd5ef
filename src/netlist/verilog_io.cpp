#include "netlist/verilog_io.h"

#include <cctype>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/trace.h"
#include "netlist/text_scan.h"

namespace gcnt {

namespace {

/// A token is a view into the parsed buffer.
struct Token {
  std::string_view text;
  int line = 0;
};

[[noreturn]] void fail(int line, const std::string& message) {
  throw Error(ErrorKind::kCorrupt,
              "verilog parse error at line " + std::to_string(line) + ": " +
                  message);
}

bool is_punctuation(char c) {
  return c == '(' || c == ')' || c == ',' || c == ';' || c == '=';
}

/// Lexer: identifiers/keywords and single-char punctuation; comments and
/// whitespace removed. An identifier is a maximal run of other characters,
/// so every token is a contiguous view of `text`.
std::vector<Token> tokenize(std::string_view text) {
  std::vector<Token> tokens;
  int line = 1;
  bool in_line_comment = false;
  bool in_block_comment = false;
  char prev = 0;
  std::size_t start = std::string_view::npos;  // of the identifier being read

  const auto flush = [&](std::size_t end) {
    if (start != std::string_view::npos) {
      tokens.push_back(Token{text.substr(start, end - start), line});
      start = std::string_view::npos;
    }
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n') {
      in_line_comment = false;
      flush(i);
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
    const char ahead = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '/' && ahead == '/') {
      flush(i);
      in_line_comment = true;
      prev = c;
      continue;
    }
    if (c == '/' && ahead == '*') {
      flush(i);
      in_block_comment = true;
      prev = '*';  // the '*' is consumed, so "/*/" closes at once
      ++i;
      continue;
    }
    if (is_space(c)) {
      flush(i);
    } else if (is_punctuation(c)) {
      flush(i);
      tokens.push_back(Token{text.substr(i, 1), line});
    } else if (start == std::string_view::npos) {
      start = i;
    }
    prev = c;
  }
  flush(text.size());
  return tokens;
}

bool primitive_type(std::string_view word, CellType& out) {
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

/// A primitive instance; its ports (output first) are ports[first, end) of
/// the shared port pool.
struct Instance {
  CellType type = CellType::kBuf;
  int line = 0;
  std::size_t first = 0, end = 0;
};

Netlist parse_verilog(std::string_view text, std::string fallback_name) {
  std::optional<TraceSpan> phase(std::in_place, "netlist.scan");
  const auto tokens = tokenize(text);
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
  const auto expect = [&](std::string_view want) {
    const Token& token = next();
    if (token.text != want) {
      fail(token.line, "expected '" + std::string(want) + "', got '" +
                           std::string(token.text) + "'");
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
  std::string module_name(next().text);
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
  std::vector<Token> inputs, outputs, wires, ports;
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
      Instance instance;
      if (!primitive_type(token.text, instance.type)) {
        fail(token.line, "unknown statement or primitive '" +
                             std::string(token.text) + "'");
      }
      instance.line = token.line;
      if (next().text != "(") {
        expect("(");  // consumed the instance name
      }
      instance.first = ports.size();
      identifier_list(ports);
      instance.end = ports.size();
      expect(")");
      expect(";");
      if (instance.end - instance.first < 2) {
        fail(instance.line, "primitive needs an output and at least one input");
      }
      instances.push_back(instance);
    }
  }

  phase->arg("bytes", static_cast<double>(text.size()));
  phase->arg("lines", tokens.empty() ? 0.0 : tokens.back().line);

  // --- resolve. Inputs become kInput nodes; every instance output becomes
  // a node of the primitive's type; outputs get PO sink nodes, which
  // Netlist::build names after their drivers.
  phase.emplace("netlist.resolve");
  const std::size_t defined = inputs.size() + instances.size() + assigns.size();
  std::vector<CellType> types;
  std::vector<std::string_view> names;
  types.reserve(defined + outputs.size());
  names.reserve(defined);
  NameTable signal(defined);
  NameTable declared(wires.size() + outputs.size());  // a set: ids unused
  for (const Token& t : wires) declared.insert(t.text, 0);
  for (const Token& t : outputs) declared.insert(t.text, 0);

  const auto next_id = [&] { return static_cast<NodeId>(names.size()); };
  const auto define = [&](std::string_view net, CellType type) {
    names.push_back(net);
    types.push_back(type);
  };
  const auto drive = [&](const Token& net, int line, CellType type) {
    if (!declared.contains(net.text) && !signal.contains(net.text)) {
      fail(line, "undeclared net " + std::string(net.text));
    }
    if (!signal.insert(net.text, next_id())) {
      fail(line, "multiple drivers for " + std::string(net.text));
    }
    define(net.text, type);
  };
  for (const Token& t : inputs) {
    if (!signal.insert(t.text, next_id())) {
      fail(t.line, "redefinition of " + std::string(t.text));
    }
    define(t.text, CellType::kInput);
  }
  for (const Instance& instance : instances) {
    drive(ports[instance.first], instance.line, instance.type);
  }
  for (const auto& [lhs, rhs] : assigns) drive(lhs, lhs.line, CellType::kBuf);

  // Resolve every fanin in id order, the order an edge-by-edge build
  // connects them in, so the first error is the one it would hit.
  std::vector<NodeId> fanins;
  fanins.reserve(ports.size() - instances.size() + assigns.size() +
                 outputs.size());
  std::vector<std::uint32_t> fanin_end(inputs.size(), 0);
  fanin_end.reserve(defined + outputs.size());
  const auto resolve = [&](std::string_view name, int line) {
    const NodeId id = signal.find(name);
    if (id == kInvalidNode) fail(line, "undriven net " + std::string(name));
    fanins.push_back(id);
  };
  const auto end_node = [&] {
    fanin_end.push_back(static_cast<std::uint32_t>(fanins.size()));
  };
  for (const Instance& instance : instances) {
    const int arity = static_cast<int>(instance.end - instance.first) - 1;
    if (arity < min_fanin(instance.type) || arity > max_fanin(instance.type)) {
      fail(instance.line, "illegal port count for primitive");
    }
    for (std::size_t p = instance.first + 1; p < instance.end; ++p) {
      resolve(ports[p].text, instance.line);
    }
    end_node();
  }
  for (const auto& [lhs, rhs] : assigns) {
    resolve(rhs.text, rhs.line);
    end_node();
  }
  for (const Token& t : outputs) {
    resolve(t.text, t.line);
    types.push_back(CellType::kOutput);
    end_node();
  }
  phase->arg("names", static_cast<double>(names.size()));
  phase->arg("operands", static_cast<double>(fanins.size()));

  phase.emplace("netlist.build");
  Netlist netlist = Netlist::build(std::move(module_name), std::move(types),
                                   names, fanin_end, std::move(fanins));
  phase->arg("nodes", static_cast<double>(netlist.size()));
  phase->arg("edges", static_cast<double>(netlist.edge_count()));
  return netlist;
}

}  // namespace

Netlist read_verilog(std::istream& in, std::string fallback_name) {
  return parse_verilog(read_stream(in), std::move(fallback_name));
}

Netlist read_verilog_string(const std::string& text,
                            std::string fallback_name) {
  return parse_verilog(text, std::move(fallback_name));
}

void write_verilog(const Netlist& netlist, std::ostream& out) {
  const std::string module_name =
      netlist.name().empty() ? "top" : netlist.name();
  out << "module " << module_name << " (";
  bool first = true;
  const auto emit_port = [&](std::string_view name) {
    if (!first) out << ", ";
    out << name;
    first = false;
  };
  for (NodeId v : netlist.primary_inputs()) emit_port(netlist.node_name(v));
  for (NodeId v : netlist.primary_outputs()) emit_port(netlist.node_name(v));
  for (NodeId v : netlist.observe_points()) emit_port(netlist.node_name(v));
  out << ");\n";

  for (NodeId v : netlist.primary_inputs()) {
    out << "  input " << netlist.node_name(v) << ";\n";
  }
  for (NodeId v : netlist.primary_outputs()) {
    out << "  output " << netlist.node_name(v) << ";\n";
  }
  for (NodeId v : netlist.observe_points()) {
    out << "  output " << netlist.node_name(v) << ";  // observation point\n";
  }
  for (NodeId v = 0; v < netlist.size(); ++v) {
    if (is_logic(netlist.type(v)) || netlist.type(v) == CellType::kDff) {
      out << "  wire " << netlist.node_name(v) << ";\n";
    }
  }

  std::size_t instance_index = 0;
  for (NodeId v = 0; v < netlist.size(); ++v) {
    const CellType type = netlist.type(v);
    if (is_logic(type) || type == CellType::kDff) {
      std::string mnemonic(cell_type_name(type));
      for (char& c : mnemonic) c = static_cast<char>(std::tolower(c));
      out << "  " << mnemonic << " g" << instance_index++ << " ("
          << netlist.node_name(v);
      for (NodeId u : netlist.fanins(v)) out << ", " << netlist.node_name(u);
      out << ");\n";
    } else if (type == CellType::kOutput || type == CellType::kObserve) {
      out << "  assign " << netlist.node_name(v) << " = "
          << netlist.node_name(netlist.fanins(v).front()) << ";\n";
    }
  }
  out << "endmodule\n";
}

std::string write_verilog_string(const Netlist& netlist) {
  std::ostringstream out;
  write_verilog(netlist, out);
  return out.str();
}

}  // namespace gcnt
