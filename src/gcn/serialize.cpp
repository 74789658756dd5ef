#include "gcn/serialize.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <istream>
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
// v1: config + fp32 params, the only version this build reads or writes.
// (Older builds wrote int8 models as v2; those fail the version check.)
constexpr int kVersion = 1;

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
  out << kMagic << " v" << kVersion << "\n";
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
}

GcnModel load_model(std::istream& in) {
  std::string magic, version;
  if (!(in >> magic >> version) || magic != kMagic) {
    fail("bad header");
  }
  if (version != "v" + std::to_string(kVersion)) {
    throw Error(ErrorKind::kVersion,
                "load_model: model is " + version + ", this build reads v" +
                    std::to_string(kVersion));
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

std::size_t write_predictions(const Netlist& netlist,
                              const Matrix& probabilities, std::ostream& out) {
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::string chunk = "# node p(positive) predicted\n";
  chunk.reserve(kChunk + 64);
  std::size_t bytes = 0;
  const auto flush = [&] {
    out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    bytes += chunk.size();
    chunk.clear();
  };
  char number[32];
  for (NodeId v = 0; v < netlist.size(); ++v) {
    const float p = probabilities.at(v, 1);
    // to_chars with a precision formats like printf's %g, which is what
    // ostream's default float output is.
    const auto end = std::to_chars(number, number + sizeof number, p,
                                   std::chars_format::general, 6)
                         .ptr;
    chunk += netlist.node_name(v);
    chunk += ' ';
    chunk.append(number, end);
    chunk += p >= 0.5f ? " 1\n" : " 0\n";
    if (chunk.size() >= kChunk) flush();
  }
  flush();
  return bytes;
}

}  // namespace gcnt
