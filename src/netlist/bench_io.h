#pragma once
// Reader/writer for the ISCAS-89 style ".bench" netlist format.
//
//   # comment
//   INPUT(G0)
//   OUTPUT(G17)
//   G10 = NAND(G0, G1)
//   G11 = DFF(G10)
//
// OUTPUT(x) declares that signal x is observed; the reader materializes it
// as a dedicated OUTPUT node with one fanin (our graph convention), and the
// writer folds it back. OBSERVE nodes round-trip the same way via
// OBSERVE(x) lines, a small extension for DFT-modified netlists.

#include <iosfwd>
#include <string>

#include "netlist/netlist.h"

namespace gcnt {

/// Parses a .bench document (lexical rules in docs/FORMATS.md), reading
/// `in` to its end first. Throws gcnt::Error{kCorrupt} (a
/// std::runtime_error) with a line number on malformed input (unknown
/// gate, undefined signal, redefinition).
Netlist read_bench(std::istream& in, std::string design_name = "bench");

/// The same parse over `text` in place, without copying it.
Netlist read_bench_string(const std::string& text,
                          std::string design_name = "bench");

/// Serializes in .bench syntax; reading the result back yields an
/// isomorphic netlist (same structure; OUTPUT/OBSERVE node names are not
/// preserved, signal names are).
void write_bench(const Netlist& netlist, std::ostream& out);

std::string write_bench_string(const Netlist& netlist);

}  // namespace gcnt
