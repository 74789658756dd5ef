#include "netlist/bench_io.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "netlist/text_scan.h"

namespace gcnt {

namespace {

/// Below this many bytes a text is scanned as one chunk.
constexpr std::size_t kMinParallelBytes = 1 << 16;

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

/// What the line scan collects from one chunk of the text; every name is
/// a view into the text. Gate nodes and operand ends count from the
/// chunk's first definition and operand. Aligned so that chunks scanned
/// side by side do not share a cache line.
struct alignas(64) Lines {
  std::vector<std::string_view> names;  // per defined node, in id order
  std::vector<CellType> types;
  std::vector<int> name_lines;
  std::vector<GateLine> gates;
  std::vector<std::string_view> operands;
  std::vector<SignalRef> outputs, observes;
  std::optional<Error> malformed;  // the scan stopped at this line
};

/// One pass over `text`, whose first line is line `line_number` + 1;
/// throws at the first malformed line. Names are not resolved here, so
/// redefinitions are left to the caller.
void scan_lines(std::string_view text, int line_number, Lines& out) {
  const auto define = [&](std::string_view name, CellType type, int line) {
    out.names.push_back(name);
    out.types.push_back(type);
    out.name_lines.push_back(line);
    return static_cast<NodeId>(out.names.size() - 1);
  };
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

/// A chunk's newlines and commas.
struct Separators {
  std::size_t newlines = 0, commas = 0;
};

/// Counts eight bytes at a time: a byte of word ^ pattern is zero exactly
/// where it matches, and the carry-free test in `matches` turns just those
/// bytes into 1s. Per-byte lanes add up to 255 words before they are
/// summed, so no lane overflows.
Separators count_separators(std::string_view text) {
  constexpr std::uint64_t kLow = 0x7f7f7f7f7f7f7f7full;
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  const auto matches = [](std::uint64_t word, char byte) {
    const std::uint64_t x = word ^ (kOnes * static_cast<unsigned char>(byte));
    return (~(((x & kLow) + kLow) | x) >> 7) & kOnes;
  };
  const auto lane_sum = [](std::uint64_t lanes) {  // 8 lanes of <= 255
    constexpr std::uint64_t kEven = 0x00ff00ff00ff00ffull;
    const std::uint64_t pairs = (lanes & kEven) + ((lanes >> 8) & kEven);
    return static_cast<std::size_t>((pairs * 0x0001000100010001ull) >> 48);
  };
  Separators count;
  std::size_t at = 0;
  while (at + 8 <= text.size()) {
    std::uint64_t newlines = 0, commas = 0;
    for (int k = 0; k < 255 && at + 8 <= text.size(); ++k, at += 8) {
      std::uint64_t word;
      std::memcpy(&word, text.data() + at, 8);
      newlines += matches(word, '\n');
      commas += matches(word, ',');
    }
    count.newlines += lane_sum(newlines);
    count.commas += lane_sum(commas);
  }
  for (; at < text.size(); ++at) {
    count.newlines += text[at] == '\n';
    count.commas += text[at] == ',';
  }
  return count;
}

/// The text cut into one chunk per block of `plan`, each ending after a
/// newline (or at the end of the text): chunk c is [cuts[c], cuts[c + 1]).
std::vector<std::size_t> cut_chunks(std::string_view text,
                                    const BlockPlan& plan) {
  std::vector<std::size_t> cuts(plan.count + 1, text.size());
  cuts[0] = 0;
  for (std::size_t c = 1; c < plan.count; ++c) {
    const std::size_t boundary = plan.begin(c);
    if (boundary <= cuts[c - 1]) {  // a line ran past this boundary
      cuts[c] = cuts[c - 1];
      continue;
    }
    const std::size_t eol = text.find('\n', boundary - 1);
    cuts[c] = eol == std::string_view::npos ? text.size() : eol + 1;
  }
  return cuts;
}

/// An exclusive prefix sum of count(c) over chunks [0, chunks): entry c is
/// where chunk c's items start, the last entry their total.
template <typename Count>
std::vector<std::size_t> chunk_starts(std::size_t chunks, Count count) {
  std::vector<std::size_t> starts(chunks + 1, 0);
  for (std::size_t c = 0; c < chunks; ++c) {
    starts[c + 1] = starts[c] + count(c);
  }
  return starts;
}

/// A text's lines: the chunk records up to the first malformed line,
/// where each chunk's definitions and operands start, and the defined
/// names and every node's type joined in id order.
struct Scan {
  std::vector<Lines> chunks;
  std::vector<std::size_t> def_at, operand_at;  // per chunk, then the total
  std::vector<std::string_view> names;  // per defined node, in id order
  /// The defined nodes, then one OUTPUT sink per OUTPUT line and one
  /// OBSERVE sink per OBSERVE line, each in file order.
  std::vector<CellType> types;
  std::optional<Error> malformed;  // the first malformed line, if any
  std::size_t lines = 0;           // in the whole text
};

/// Scans `text` in line-aligned chunks, one per kernel-pool block. A first
/// pass counts each chunk's newlines (which number its lines) and commas
/// (which with its lines bound its records), so every record is sized
/// here and the workers only fill. Everything past the first malformed
/// line is dropped.
Scan scan_text(std::string_view text) {
  const BlockPlan plan = plan_blocks(text.size(), kMinParallelBytes);
  const std::vector<std::size_t> cuts = cut_chunks(text, plan);
  const auto chunk_text = [&](std::size_t c) {
    return text.substr(cuts[c], cuts[c + 1] - cuts[c]);
  };
  std::vector<Separators> separators(plan.count);
  run_blocks(plan, [&](std::size_t c, std::size_t, std::size_t) {
    separators[c] = count_separators(chunk_text(c));
  });
  Scan scan;
  scan.chunks.resize(plan.count);
  for (std::size_t c = 0; c < plan.count; ++c) {
    const std::size_t lines = separators[c].newlines + 1;  // one may lack \n
    Lines& r = scan.chunks[c];
    r.names.reserve(lines);
    r.types.reserve(lines);
    r.name_lines.reserve(lines);
    r.gates.reserve(lines);
    r.operands.reserve(separators[c].commas + lines);
    r.outputs.reserve(lines);
    r.observes.reserve(lines);
  }
  const std::vector<std::size_t> lines_before =
      chunk_starts(plan.count,
                   [&](std::size_t c) { return separators[c].newlines; });
  run_blocks(plan, [&](std::size_t c, std::size_t, std::size_t) {
    try {
      scan_lines(chunk_text(c), static_cast<int>(lines_before[c]),
                 scan.chunks[c]);
    } catch (const Error& e) {
      scan.chunks[c].malformed = e;
    }
  });
  scan.lines =
      lines_before[plan.count] + (!text.empty() && text.back() != '\n');

  std::size_t used = 0;  // the chunks up to the first malformed one
  while (used < plan.count && !scan.chunks[used++].malformed) {
  }
  scan.malformed = scan.chunks[used - 1].malformed;
  scan.chunks.resize(used);
  const std::vector<Lines>& chunks = scan.chunks;
  const auto starts = [&](auto member) {
    return chunk_starts(used, [&](std::size_t c) {
      return (chunks[c].*member).size();
    });
  };
  scan.def_at = starts(&Lines::names);
  scan.operand_at = starts(&Lines::operands);
  const std::vector<std::size_t> output_at = starts(&Lines::outputs);
  const std::vector<std::size_t> observe_at = starts(&Lines::observes);
  const std::size_t defined = scan.def_at[used];
  const std::size_t outputs = output_at[used];
  scan.names.resize(defined);
  scan.types.resize(defined + outputs + observe_at[used]);
  run_blocks(plan_blocks(used, 1), [&](std::size_t, std::size_t first,
                                       std::size_t last) {
    for (std::size_t c = first; c < last; ++c) {
      const Lines& r = chunks[c];
      std::copy(r.names.begin(), r.names.end(),
                scan.names.begin() + scan.def_at[c]);
      std::copy(r.types.begin(), r.types.end(),
                scan.types.begin() + scan.def_at[c]);
      std::fill_n(scan.types.begin() + defined + output_at[c],
                  r.outputs.size(), CellType::kOutput);
      std::fill_n(scan.types.begin() + defined + outputs + observe_at[c],
                  r.observes.size(), CellType::kObserve);
    }
  });
  return scan;
}

/// Resolves chunk `c`'s operands into drivers[operand_at[c], ...) and
/// checks its gates in line order: each one's operand count, then its
/// operands. Sets where each of the chunk's nodes' fanins end; an INPUT's
/// end where the gate before it ends.
void resolve_chunk(const Scan& scan, const NameTable& signals, std::size_t c,
                   std::vector<NodeId>& drivers,
                   std::vector<std::uint32_t>& fanin_end) {
  const Lines& r = scan.chunks[c];
  const std::size_t base = scan.operand_at[c];
  signals.find_all(r.operands, std::span(drivers).subspan(base));
  NodeId v = static_cast<NodeId>(scan.def_at[c]);
  std::uint32_t begin = 0;
  for (const GateLine& gate : r.gates) {
    const CellType type = r.types[gate.node];
    const int arity = static_cast<int>(gate.operands_end - begin);
    if (arity < min_fanin(type) || arity > max_fanin(type)) {
      fail(gate.line,
           "illegal operand count for " + std::string(cell_type_name(type)));
    }
    for (std::uint32_t at = begin; at < gate.operands_end; ++at) {
      if (drivers[base + at] == kInvalidNode) {
        fail(gate.line, "undefined signal " + std::string(r.operands[at]));
      }
    }
    const NodeId node = static_cast<NodeId>(scan.def_at[c] + gate.node);
    for (; v < node; ++v) fanin_end[v] = static_cast<std::uint32_t>(base + begin);
    begin = gate.operands_end;
    fanin_end[v++] = static_cast<std::uint32_t>(base + begin);
  }
  for (; v < scan.def_at[c + 1]; ++v) {
    fanin_end[v] = static_cast<std::uint32_t>(base + begin);
  }
}

/// Resolves every driver of `scan` into `drivers` (the fanins, in
/// connection order: gate operands in line order, then OUTPUT signals,
/// then OBSERVE signals) and sets where each node's fanins end. Reports
/// the error an edge-by-edge reader meets first: a redefinition above the
/// first malformed line, then that line, then each gate's operand count
/// and operands in line order, then the OUTPUT and OBSERVE signals.
void resolve(const Scan& scan, std::vector<NodeId>& drivers,
             std::vector<std::uint32_t>& fanin_end) {
  const std::size_t defined = scan.names.size();
  const std::size_t chunks = scan.chunks.size();
  const std::size_t operands = scan.operand_at[chunks];
  NameTable signals(defined);
  const std::size_t twice = signals.insert_all(scan.names, 0);
  if (twice < defined) {
    const std::size_t c = std::upper_bound(scan.def_at.begin(),
                                           scan.def_at.end(), twice) -
                          scan.def_at.begin() - 1;
    fail(scan.chunks[c].name_lines[twice - scan.def_at[c]],
         "redefinition of " + std::string(scan.names[twice]));
  }
  if (scan.malformed) throw *scan.malformed;

  // Each chunk stops at its first error; the first chunk with one holds
  // the first in file order.
  drivers.resize(operands + scan.types.size() - defined);
  fanin_end.resize(scan.types.size());
  std::vector<std::optional<Error>> failed(chunks);
  run_blocks(plan_blocks(chunks, 1), [&](std::size_t, std::size_t first,
                                         std::size_t last) {
    for (std::size_t c = first; c < last; ++c) {
      try {
        resolve_chunk(scan, signals, c, drivers, fanin_end);
      } catch (const Error& e) {
        failed[c] = e;
        return;
      }
    }
  });
  for (const std::optional<Error>& error : failed) {
    if (error) throw *error;
  }
  // Then the sinks, one fanin each: every OUTPUT, then every OBSERVE.
  std::uint32_t at = static_cast<std::uint32_t>(operands);
  NodeId sink = static_cast<NodeId>(defined);
  for (const auto refs : {&Lines::outputs, &Lines::observes}) {
    for (const Lines& r : scan.chunks) {
      for (const SignalRef& ref : r.*refs) {
        drivers[at] = signals.find(ref.name);
        if (drivers[at] == kInvalidNode) {
          fail(ref.line, "undefined signal " + std::string(ref.name));
        }
        fanin_end[sink++] = ++at;
      }
    }
  }
}

Netlist parse_bench(std::string_view text, std::string design_name) {
  Scan scan;
  {
    TraceSpan span("netlist.scan");
    scan = scan_text(text);
    span.arg("bytes", static_cast<double>(text.size()));
    span.arg("lines", static_cast<double>(scan.lines));
  }
  std::vector<NodeId> drivers;
  std::vector<std::uint32_t> fanin_end;
  {
    TraceSpan span("netlist.resolve");
    resolve(scan, drivers, fanin_end);
    span.arg("names", static_cast<double>(scan.names.size()));
    span.arg("operands", static_cast<double>(drivers.size()));
  }
  // Only the names and types are still needed; release the records first,
  // so the netlist's arenas can take their memory.
  std::vector<Lines>().swap(scan.chunks);
  TraceSpan span("netlist.build");
  Netlist netlist =
      Netlist::build(std::move(design_name), std::move(scan.types),
                     scan.names, fanin_end, std::move(drivers));
  span.arg("nodes", static_cast<double>(netlist.size()));
  span.arg("edges", static_cast<double>(netlist.edge_count()));
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
