#include "netlist/bench_io.h"

#include <algorithm>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "netlist/text_scan.h"

namespace gcnt {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw Error(ErrorKind::kCorrupt, "bench parse error at line " +
                                       std::to_string(line) + ": " + message);
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0, end = text.size();
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

char upper(char c) { return c >= 'a' && c <= 'z' ? c - 'a' + 'A' : c; }

/// True when `word` equals the upper-case `directive` ignoring ASCII case.
bool is_directive(std::string_view word, std::string_view directive) {
  if (word.size() != directive.size()) return false;
  for (std::size_t i = 0; i < word.size(); ++i) {
    if (upper(word[i]) != directive[i]) return false;
  }
  return true;
}

/// Parses "FUNC(a, b, c)": FUNC is the trimmed text before the first '(',
/// the operands are the trimmed non-empty comma-separated pieces between it
/// and the last ')', appended to `operands`. Returns FUNC, or an empty view
/// when either parenthesis is missing or FUNC is empty.
std::string_view parse_call(std::string_view text,
                            std::vector<std::string_view>& operands) {
  const std::size_t open = text.find('(');
  const std::size_t close = text.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    return {};
  }
  std::string_view inner = text.substr(open + 1, close - open - 1);
  for (;;) {
    const std::size_t comma = inner.find(',');
    const std::string_view piece = trim(inner.substr(0, comma));
    if (!piece.empty()) operands.push_back(piece);
    if (comma == std::string_view::npos) break;
    inner.remove_prefix(comma + 1);
  }
  return trim(text.substr(0, open));
}

/// A gate line: its node, its line number, and the end of its operands in
/// the operand pool (they start where the previous gate's end).
struct GateLine {
  NodeId node;
  int line;
  std::uint32_t operands_end;
};

/// An OUTPUT(x) or OBSERVE(x) line.
struct SignalRef {
  std::string_view name;
  int line;
};

/// What the line scan collects; every name is a view into the text.
struct Lines {
  std::vector<std::string_view> names;  // per defined node, in id order
  std::vector<CellType> types;
  std::vector<int> name_lines;
  std::vector<GateLine> gates;
  std::vector<std::string_view> operands;
  std::vector<SignalRef> outputs, observes;
};

/// One pass over `text`; throws at the first malformed line. Names are
/// not resolved here, so redefinitions are left to the caller.
void scan_lines(std::string_view text, Lines& out) {
  const auto define = [&](std::string_view name, CellType type, int line) {
    out.names.push_back(name);
    out.types.push_back(type);
    out.name_lines.push_back(line);
    return static_cast<NodeId>(out.names.size() - 1);
  };
  int line_number = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_number;
    line = trim(line.substr(0, line.find('#')));
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      const std::size_t first = out.operands.size();
      const std::string_view func = parse_call(line, out.operands);
      if (func.empty() || out.operands.size() != first + 1) {
        fail(line_number, "expected INPUT(x) / OUTPUT(x) / OBSERVE(x)");
      }
      const std::string_view arg = out.operands.back();
      out.operands.pop_back();
      if (is_directive(func, "INPUT")) {
        define(arg, CellType::kInput, line_number);
      } else if (is_directive(func, "OUTPUT")) {
        out.outputs.push_back({arg, line_number});
      } else if (is_directive(func, "OBSERVE")) {
        out.observes.push_back({arg, line_number});
      } else {
        std::string name(func);
        for (char& c : name) c = upper(c);
        fail(line_number, "unknown directive " + name);
      }
      continue;
    }

    const std::string_view lhs = trim(line.substr(0, eq));
    const std::string_view func =
        parse_call(trim(line.substr(eq + 1)), out.operands);
    if (func.empty()) fail(line_number, "expected <name> = GATE(args)");
    CellType type = CellType::kBuf;
    if (!parse_cell_type(func, type)) {
      fail(line_number, "unknown gate type " + std::string(func));
    }
    if (!is_logic(type) && type != CellType::kDff) {
      fail(line_number,
           "gate type " + std::string(func) + " not allowed on assignment");
    }
    if (lhs.empty()) fail(line_number, "missing signal name");
    out.gates.push_back({define(lhs, type, line_number), line_number,
                         static_cast<std::uint32_t>(out.operands.size())});
  }
}

Netlist parse_bench(std::string_view text, std::string design_name) {
  Lines lines;
  std::optional<Error> malformed;
  try {
    scan_lines(text, lines);
  } catch (const Error& e) {
    malformed = e;
  }
  // Every name defined above the malformed line (if any) goes in first: a
  // redefinition there is the earlier error.
  NameTable signals;
  const std::size_t twice = signals.insert_all(lines.names, 0);
  if (twice < lines.names.size()) {
    fail(lines.name_lines[twice],
         "redefinition of " + std::string(lines.names[twice]));
  }
  if (malformed) throw *malformed;

  // Resolve every driver: gate operands in line order, then OUTPUT
  // signals, then OBSERVE signals, the order the edges are connected in.
  std::vector<std::string_view>& sources = lines.operands;
  for (const SignalRef& ref : lines.outputs) sources.push_back(ref.name);
  for (const SignalRef& ref : lines.observes) sources.push_back(ref.name);
  std::vector<NodeId> drivers;
  signals.find_all(sources, drivers);

  // Check them in that order too, so the first error is the one an
  // edge-by-edge reader would hit, and count fanins and fanouts.
  const std::size_t defined = lines.names.size();
  const std::size_t total = defined + lines.outputs.size() + lines.observes.size();
  std::vector<std::uint32_t> fanins(total, 0), fanouts(total, 0);
  std::size_t at = 0;
  const auto check = [&](int line) {
    if (drivers[at] == kInvalidNode) {
      fail(line, "undefined signal " + std::string(sources[at]));
    }
    ++fanouts[drivers[at++]];
  };
  for (const GateLine& gate : lines.gates) {
    const CellType type = lines.types[gate.node];
    const int arity = static_cast<int>(gate.operands_end - at);
    if (arity < min_fanin(type) || arity > max_fanin(type)) {
      fail(gate.line, "illegal operand count for " +
                          std::string(cell_type_name(type)));
    }
    fanins[gate.node] = static_cast<std::uint32_t>(arity);
    while (at < gate.operands_end) check(gate.line);
  }
  for (const SignalRef& ref : lines.outputs) check(ref.line);
  for (const SignalRef& ref : lines.observes) check(ref.line);
  std::fill(fanins.begin() + defined, fanins.end(), 1);  // the sinks

  // The name table and the operand views are done with; release them
  // first, so the netlist's arenas can take their memory.
  signals = NameTable();
  std::vector<std::string_view>().swap(sources);

  // Size the netlist once, then connect.
  std::size_t name_bytes = 4 * lines.outputs.size() + 3 * lines.observes.size();
  for (const std::string_view name : lines.names) name_bytes += name.size();
  for (const SignalRef& ref : lines.outputs) name_bytes += ref.name.size();
  for (const SignalRef& ref : lines.observes) name_bytes += ref.name.size();
  Netlist netlist(std::move(design_name));
  netlist.reserve(total, name_bytes, drivers.size());
  for (NodeId v = 0; v < defined; ++v) {
    netlist.add_node(lines.types[v], lines.names[v]);
  }
  std::string sink_name;
  const auto add_sink = [&](CellType type, std::string_view prefix,
                            std::string_view name) {
    sink_name.assign(prefix).append(name);
    netlist.add_node(type, sink_name);
  };
  for (const SignalRef& ref : lines.outputs) {
    add_sink(CellType::kOutput, "out_", ref.name);
  }
  for (const SignalRef& ref : lines.observes) {
    add_sink(CellType::kObserve, "op_", ref.name);
  }
  for (NodeId v = 0; v < total; ++v) {
    netlist.reserve_edges(v, fanins[v], fanouts[v]);
  }
  at = 0;
  for (const GateLine& gate : lines.gates) {
    for (; at < gate.operands_end; ++at) {
      netlist.connect(drivers[at], gate.node);
    }
  }
  for (NodeId sink = static_cast<NodeId>(defined); at < drivers.size(); ++at) {
    netlist.connect(drivers[at], sink++);
  }
  return netlist;
}

}  // namespace

Netlist read_bench(std::istream& in, std::string design_name) {
  return parse_bench(read_stream(in), std::move(design_name));
}

Netlist read_bench_string(const std::string& text, std::string design_name) {
  return parse_bench(text, std::move(design_name));
}

void write_bench(const Netlist& netlist, std::ostream& out) {
  out << "# design " << netlist.name() << "\n";
  const std::size_t n = netlist.size();
  for (NodeId v = 0; v < n; ++v) {
    const CellType t = netlist.type(v);
    if (t == CellType::kInput) {
      out << "INPUT(" << netlist.node_name(v) << ")\n";
    } else if (t == CellType::kOutput || t == CellType::kObserve) {
      out << (t == CellType::kOutput ? "OUTPUT(" : "OBSERVE(")
          << netlist.node_name(netlist.fanins(v).front()) << ")\n";
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    const CellType t = netlist.type(v);
    if (!is_logic(t) && t != CellType::kDff) continue;
    out << netlist.node_name(v) << " = " << cell_type_name(t) << "(";
    const auto& fanins = netlist.fanins(v);
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      if (i) out << ", ";
      out << netlist.node_name(fanins[i]);
    }
    out << ")\n";
  }
}

std::string write_bench_string(const Netlist& netlist) {
  std::ostringstream out;
  write_bench(netlist, out);
  return out.str();
}

}  // namespace gcnt
