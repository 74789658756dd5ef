#pragma once
// Model persistence: save/load trained GCN weights.
//
// Text-based, endianness-independent format:
//
//   gcnt-model v1
//   depth D
//   embed_dims k1 k2 ...
//   fc_dims f1 f2 ...
//   num_classes C
//   aggregation <tied> <frozen> <w_pr> <w_su>
//   param <rows> <cols>
//   <row-major float values ...>
//   ...
//
// Floats are written with max_digits10 so a round-trip is bit-exact.
//
// v1 is the only version: every model saves its fp32 weights as v1,
// whatever its precision tier. Older builds wrote int8 models as v2 (v1
// plus a quantized-weights section); loading one fails the version check
// with Error{kVersion}.
//
// On disk the v1 text above is the payload of a checksummed
// `gcnt-artifact` envelope (common/artifact.h), written atomically —
// a crash mid-save never leaves a truncated model, and a bit-flipped
// file is rejected at load. Pre-envelope bare files remain loadable.

#include <iosfwd>
#include <string>

#include "gcn/model.h"

namespace gcnt {

/// Writes configuration + every parameter of `model`.
void save_model(const GcnModel& model, std::ostream& out);

/// Reconstructs a model (architecture + weights). Throws gcnt::Error —
/// kCorrupt on malformed input, out-of-bounds architecture fields, or
/// non-finite weights; kVersion on a format-version mismatch.
GcnModel load_model(std::istream& in);

/// File-path conveniences. save writes an enveloped artifact atomically;
/// load verifies it (or reads a legacy bare file). Throw gcnt::Error
/// with kind kIo / kCorrupt / kVersion.
void save_model_file(const GcnModel& model, const std::string& path);
GcnModel load_model_file(const std::string& path);

/// The per-node prediction file of `gcnt infer --out`: a header line,
/// then "name p predicted" per node, p = probabilities(v, 1) printed as
/// `std::ostream << p` prints it (%g, 6 significant digits) and predicted
/// = p >= 0.5. Formatted with std::to_chars into one string.
std::string format_predictions(const Netlist& netlist,
                               const Matrix& probabilities);

}  // namespace gcnt
