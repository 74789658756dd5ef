#include "gcn/serialize.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/artifact.h"
#include "common/error.h"
#include "common/fault_inject.h"

namespace gcnt {

namespace {

constexpr const char* kMagic = "gcnt-model";
// v1: config + fp32 params. v2 = v1 + a trailing quantized-weights
// section. A model without int8 snapshots still saves as v1 — byte
// identical to what older builds wrote — so default saves never change
// and old readers only reject files that actually need the new section.
constexpr int kVersion = 1;
constexpr int kQuantVersion = 2;

// Architecture bounds: a corrupted or hostile header must not be able to
// drive a huge allocation. The paper's widest layer is 128; these caps
// leave two orders of magnitude of headroom while keeping the largest
// single weight matrix (kMaxDim^2 floats) around 1 GiB.
constexpr std::size_t kMaxDepth = 64;
constexpr std::size_t kMaxLayerCount = 64;
constexpr std::size_t kMaxDim = 16384;
constexpr std::size_t kMaxClasses = 4096;
/// Upper bound on total parameter elements across all layers (64M floats
/// = 256 MiB), checked before the model is constructed.
constexpr std::size_t kMaxTotalParams = std::size_t{1} << 26;

[[noreturn]] void fail(const std::string& message) {
  throw Error(ErrorKind::kCorrupt, "load_model: " + message);
}

std::vector<std::size_t> read_dims(std::istringstream& line) {
  std::vector<std::size_t> dims;
  std::size_t value = 0;
  while (line >> value) dims.push_back(value);
  return dims;
}

void check_dims(const char* what, const std::vector<std::size_t>& dims) {
  if (dims.size() > kMaxLayerCount) {
    fail(std::string(what) + ": implausible layer count " +
         std::to_string(dims.size()));
  }
  for (std::size_t k : dims) {
    if (k == 0 || k > kMaxDim) {
      fail(std::string(what) + ": dimension " + std::to_string(k) +
           " outside [1, " + std::to_string(kMaxDim) + "]");
    }
  }
}

/// Total parameter elements the config will allocate — computed from the
/// header alone so the bound is enforced before any allocation happens.
std::size_t config_param_elements(const GcnConfig& config) {
  std::size_t total = 2;  // w_pr, w_su
  std::size_t in = kNodeFeatureDim;
  for (std::size_t d = 0; d < static_cast<std::size_t>(config.depth); ++d) {
    const std::size_t out = config.embed_dims[d];
    total += in * out + out;
    in = out;
  }
  for (std::size_t f : config.fc_dims) {
    total += in * f + f;
    in = f;
  }
  total += in * config.num_classes + config.num_classes;
  return total;
}

}  // namespace

void save_model(const GcnModel& model, std::ostream& out) {
  const GcnConfig& config = model.config();
  const bool quantized = model.precision() == Precision::kInt8;
  out << kMagic << " v" << (quantized ? kQuantVersion : kVersion) << "\n";
  out << "depth " << config.depth << "\n";
  out << "embed_dims";
  for (std::size_t k : config.embed_dims) out << " " << k;
  out << "\nfc_dims";
  for (std::size_t k : config.fc_dims) out << " " << k;
  out << "\nnum_classes " << config.num_classes << "\n";
  out << "aggregation " << (config.tied_aggregation ? 1 : 0) << " "
      << (config.frozen_aggregation ? 1 : 0) << " "
      << std::setprecision(std::numeric_limits<float>::max_digits10)
      << model.w_pr() << " " << model.w_su() << "\n";

  out << std::setprecision(std::numeric_limits<float>::max_digits10);
  for (const Param* param : model.params()) {
    out << "param " << param->value.rows() << " " << param->value.cols()
        << "\n";
    for (std::size_t i = 0; i < param->value.size(); ++i) {
      out << param->value.data()[i]
          << ((i + 1) % 8 == 0 || i + 1 == param->value.size() ? "\n" : " ");
    }
  }

  if (quantized) {
    // Calibrated per-layer int8 snapshots, encoders first then FC, so a
    // v2 load reproduces int8 inference bit-for-bit without
    // re-calibrating (col_sums are recomputed — they are derived data).
    const std::size_t layer_count =
        model.quantized_encoders().size() + model.quantized_fc().size();
    out << "quant int8 " << layer_count << "\n";
    const auto write_qlayer = [&out](const QuantizedLinear& q) {
      // "qlayer in out" then `out` per-column fp32 scales, then the
      // in*out transposed codes, both 16 values per line.
      out << "qlayer " << q.in << " " << q.out << "\n";
      for (std::size_t j = 0; j < q.out; ++j) {
        out << q.scales[j]
            << ((j + 1) % 16 == 0 || j + 1 == q.out ? "\n" : " ");
      }
      const std::size_t total = q.weight_t.size();
      for (std::size_t i = 0; i < total; ++i) {
        out << static_cast<int>(q.weight_t[i])
            << ((i + 1) % 16 == 0 || i + 1 == total ? "\n" : " ");
      }
    };
    for (const QuantizedLinear& q : model.quantized_encoders()) {
      write_qlayer(q);
    }
    for (const QuantizedLinear& q : model.quantized_fc()) write_qlayer(q);
  }
}

GcnModel load_model(std::istream& in) {
  std::string magic, version;
  if (!(in >> magic >> version) || magic != kMagic) {
    fail("bad header");
  }
  const bool quantized = version == "v" + std::to_string(kQuantVersion);
  if (!quantized && version != "v" + std::to_string(kVersion)) {
    throw Error(ErrorKind::kVersion,
                "load_model: model is " + version + ", this build reads v" +
                    std::to_string(kVersion) + "/v" +
                    std::to_string(kQuantVersion));
  }

  GcnConfig config;
  std::string line;
  std::getline(in, line);  // consume end of header line

  const auto expect_line = [&](const std::string& key) -> std::istringstream {
    if (!std::getline(in, line)) fail("truncated before " + key);
    std::istringstream stream(line);
    std::string token;
    stream >> token;
    if (token != key) fail("expected '" + key + "', got '" + token + "'");
    return stream;
  };

  {
    auto stream = expect_line("depth");
    if (!(stream >> config.depth)) fail("bad depth");
  }
  {
    auto stream = expect_line("embed_dims");
    config.embed_dims = read_dims(stream);
  }
  {
    auto stream = expect_line("fc_dims");
    config.fc_dims = read_dims(stream);
  }
  {
    auto stream = expect_line("num_classes");
    if (!(stream >> config.num_classes)) fail("bad num_classes");
  }
  {
    auto stream = expect_line("aggregation");
    int tied = 0, frozen = 0;
    if (!(stream >> tied >> frozen >> config.initial_w_pr >>
          config.initial_w_su)) {
      fail("bad aggregation line");
    }
    config.tied_aggregation = tied != 0;
    config.frozen_aggregation = frozen != 0;
  }
  if (config.embed_dims.empty() || config.depth < 1 ||
      static_cast<std::size_t>(config.depth) > config.embed_dims.size()) {
    fail("inconsistent architecture");
  }
  // Bound every architecture field before GcnModel(config) allocates: a
  // corrupted or hostile header must fail here, not in the allocator.
  if (static_cast<std::size_t>(config.depth) > kMaxDepth) {
    fail("depth " + std::to_string(config.depth) + " exceeds " +
         std::to_string(kMaxDepth));
  }
  check_dims("embed_dims", config.embed_dims);
  check_dims("fc_dims", config.fc_dims);
  if (config.num_classes == 0 || config.num_classes > kMaxClasses) {
    fail("num_classes " + std::to_string(config.num_classes) +
         " outside [1, " + std::to_string(kMaxClasses) + "]");
  }
  const std::size_t total_elements = config_param_elements(config);
  if (total_elements > kMaxTotalParams) {
    fail("architecture declares " + std::to_string(total_elements) +
         " parameters, cap is " + std::to_string(kMaxTotalParams));
  }

  fault_alloc_probe("load_model parameters");
  GcnModel model(config);
  for (Param* param : model.params()) {
    std::string token;
    std::size_t rows = 0, cols = 0;
    if (!(in >> token >> rows >> cols) || token != "param") {
      fail("missing param block");
    }
    if (rows != param->value.rows() || cols != param->value.cols()) {
      fail("parameter shape mismatch");
    }
    for (std::size_t i = 0; i < param->value.size(); ++i) {
      if (!(in >> param->value.data()[i])) fail("truncated parameter data");
      if (!std::isfinite(param->value.data()[i])) {
        fail("non-finite parameter value");
      }
    }
  }

  if (quantized) {
    std::string token, scheme;
    std::size_t layer_count = 0;
    if (!(in >> token >> scheme >> layer_count) || token != "quant") {
      fail("missing quant section in v2 model");
    }
    if (scheme != "int8") fail("unknown quantization scheme '" + scheme + "'");
    const std::size_t expected =
        model.encoders().size() + model.fc_layers().size();
    if (layer_count != expected) {
      fail("quant section declares " + std::to_string(layer_count) +
           " layers, model has " + std::to_string(expected));
    }
    std::vector<QuantizedLinear> qlayers;
    qlayers.reserve(layer_count);
    for (std::size_t l = 0; l < layer_count; ++l) {
      std::size_t in_dim = 0, out_dim = 0;
      if (!(in >> token >> in_dim >> out_dim) || token != "qlayer") {
        fail("missing qlayer block");
      }
      if (in_dim == 0 || in_dim > kMaxDim || out_dim == 0 ||
          out_dim > kMaxDim) {
        fail("qlayer dimensions outside [1, " + std::to_string(kMaxDim) + "]");
      }
      std::vector<float> scales(out_dim);
      for (std::size_t j = 0; j < out_dim; ++j) {
        if (!(in >> scales[j])) fail("truncated qlayer scales");
      }
      std::vector<std::int8_t> codes(in_dim * out_dim);
      for (std::size_t i = 0; i < codes.size(); ++i) {
        int code = 0;
        if (!(in >> code)) fail("truncated quantized weight data");
        if (code < -127 || code > 127) {
          fail("quantized weight code outside [-127, 127]");
        }
        codes[i] = static_cast<std::int8_t>(code);
      }
      // make_quantized_linear re-validates scales and rebuilds col_sums;
      // install_quantized checks each shape against the architecture.
      qlayers.push_back(make_quantized_linear(in_dim, out_dim,
                                              std::move(scales),
                                              std::move(codes)));
    }
    std::vector<QuantizedLinear> qfc(
        std::make_move_iterator(qlayers.begin() +
                                static_cast<std::ptrdiff_t>(
                                    model.encoders().size())),
        std::make_move_iterator(qlayers.end()));
    qlayers.resize(model.encoders().size());
    model.install_quantized(std::move(qlayers), std::move(qfc));
  }
  return model;
}

void save_model_file(const GcnModel& model, const std::string& path) {
  std::ostringstream payload;
  save_model(model, payload);
  write_artifact_file(path, "model", payload.str());
}

GcnModel load_model_file(const std::string& path) {
  if (is_artifact_file(path)) {
    std::istringstream payload(read_artifact_file(path, "model"));
    return load_model(payload);
  }
  // Legacy bare v1 file (pre-envelope); kept loadable.
  std::ifstream in(path);
  if (!in) throw Error(ErrorKind::kIo, "cannot open for read: " + path);
  return load_model(in);
}

std::string format_predictions(const Netlist& netlist,
                               const Matrix& probabilities) {
  std::string text = "# node p(positive) predicted\n";
  text.reserve(text.size() + netlist.size() * 24);
  char number[32];
  for (NodeId v = 0; v < netlist.size(); ++v) {
    const float p = probabilities.at(v, 1);
    // to_chars with a precision formats like printf's %g, which is what
    // ostream's default float output is.
    const auto end = std::to_chars(number, number + sizeof number, p,
                                   std::chars_format::general, 6)
                         .ptr;
    text += netlist.node_name(v);
    text += ' ';
    text.append(number, end);
    text += p >= 0.5f ? " 1\n" : " 0\n";
  }
  return text;
}

}  // namespace gcnt
