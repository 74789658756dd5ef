// Model persistence round-trips and hostile-input hardening.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

#include "common/artifact.h"
#include "common/error.h"
#include "gcn/serialize.h"
#include "gen/generator.h"
#include "nn/loss.h"

namespace gcnt {
namespace {

GcnConfig small_config() {
  GcnConfig config;
  config.depth = 2;
  config.embed_dims = {8, 12};
  config.fc_dims = {10};
  config.seed = 31;
  return config;
}

TEST(Serialize, RoundTripPreservesOutputs) {
  GeneratorConfig gen;
  gen.seed = 3;
  gen.target_gates = 120;
  const Netlist netlist = generate_circuit(gen);
  const GraphTensors tensors = build_graph_tensors(netlist);

  GcnModel model(small_config());
  std::stringstream buffer;
  save_model(model, buffer);
  GcnModel loaded = load_model(buffer);

  const Matrix a = model.infer(tensors);
  const Matrix b = loaded.infer(tensors);
  ASSERT_EQ(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(Serialize, ConfigRestored) {
  GcnModel model(small_config());
  std::stringstream buffer;
  save_model(model, buffer);
  const GcnModel loaded = load_model(buffer);
  EXPECT_EQ(loaded.config().depth, 2);
  EXPECT_EQ(loaded.config().embed_dims, (std::vector<std::size_t>{8, 12}));
  EXPECT_EQ(loaded.config().fc_dims, (std::vector<std::size_t>{10}));
  EXPECT_EQ(loaded.config().num_classes, 2u);
}

TEST(Serialize, BadMagicThrows) {
  std::stringstream buffer("not-a-model v1\n");
  EXPECT_THROW(load_model(buffer), std::runtime_error);
}

TEST(Serialize, TruncatedThrows) {
  GcnModel model(small_config());
  std::stringstream buffer;
  save_model(model, buffer);
  std::string text = buffer.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW(load_model(truncated), std::runtime_error);
}

TEST(Serialize, VersionMismatchThrows) {
  std::stringstream buffer("gcnt-model v9\ndepth 1\n");
  EXPECT_THROW(load_model(buffer), std::runtime_error);
}

TEST(Serialize, FileRoundTrip) {
  GcnModel model(small_config());
  const std::string path = "serialize_test_model.txt";
  save_model_file(model, path);
  const GcnModel loaded = load_model_file(path);
  EXPECT_EQ(loaded.config().depth, model.config().depth);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_model_file("/nonexistent/path/model.txt"),
               std::runtime_error);
}

TEST(Serialize, MissingFileIsIoError) {
  try {
    load_model_file("/nonexistent/path/model.txt");
    FAIL() << "expected gcnt::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
  }
}

TEST(Serialize, VersionMismatchIsVersionError) {
  std::stringstream buffer("gcnt-model v9\ndepth 1\n");
  try {
    load_model(buffer);
    FAIL() << "expected gcnt::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kVersion);
  }
}

// Older builds saved int8 models as v2: the v1 text under a v2 header,
// then a quantized-weights section. This build reads v1 only, so such a
// file is a typed version error, bare or inside the artifact envelope.
TEST(Serialize, V2ModelIsVersionError) {
  GcnModel model(small_config());
  std::ostringstream v1;
  save_model(model, v1);
  std::string v2 = v1.str();
  ASSERT_EQ(v2.compare(0, 14, "gcnt-model v1\n"), 0);
  v2.replace(0, 13, "gcnt-model v2");
  v2 += "quant int8 4\nqlayer 4 8\n";
  const auto kind_of_load = [](const std::function<void()>& load) {
    try {
      load();
    } catch (const Error& e) {
      return e.kind();
    }
    return ErrorKind::kInternal;
  };
  std::istringstream bare(v2);
  EXPECT_EQ(kind_of_load([&] { load_model(bare); }), ErrorKind::kVersion);
  const std::string path = "serialize_test_v2.txt";
  write_artifact_file(path, "model", v2);
  EXPECT_EQ(kind_of_load([&] { load_model_file(path); }),
            ErrorKind::kVersion);
  std::remove(path.c_str());
}

// The int8 tier is not persisted: a model set to it saves the same v1
// bytes as at fp32, and loads back at fp32.
TEST(Serialize, Int8ModelSavesFp32WeightsAsV1) {
  GcnModel model(small_config());
  std::ostringstream fp32;
  save_model(model, fp32);
  model.set_precision(Precision::kInt8);
  std::ostringstream int8;
  save_model(model, int8);
  EXPECT_EQ(int8.str(), fp32.str());
  std::istringstream in(int8.str());
  EXPECT_EQ(load_model(in).precision(), Precision::kFp32);
}

/// Builds a syntactically valid header around hostile architecture
/// fields; every case must be rejected as kCorrupt *before* any model
/// allocation happens.
std::string hostile_header(const std::string& depth,
                           const std::string& embed_dims,
                           const std::string& fc_dims,
                           const std::string& num_classes) {
  return "gcnt-model v1\ndepth " + depth + "\nembed_dims " + embed_dims +
         "\nfc_dims " + fc_dims + "\nnum_classes " + num_classes +
         "\naggregation 0 0 0.5 0.5\n";
}

void expect_corrupt(const std::string& text) {
  std::istringstream in(text);
  try {
    load_model(in);
    FAIL() << "expected gcnt::Error for: " << text.substr(0, 80);
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCorrupt);
  }
}

TEST(Serialize, HostileHeaderHugeDimensionRejected) {
  expect_corrupt(hostile_header("1", "999999999", "10", "2"));
}

TEST(Serialize, HostileHeaderZeroDimensionRejected) {
  expect_corrupt(hostile_header("1", "0", "10", "2"));
}

TEST(Serialize, HostileHeaderDepthBoundRejected) {
  std::string dims;
  for (int i = 0; i < 65; ++i) dims += "8 ";
  expect_corrupt(hostile_header("65", dims, "10", "2"));
}

TEST(Serialize, HostileHeaderLayerCountRejected) {
  std::string dims;
  for (int i = 0; i < 80; ++i) dims += "8 ";
  expect_corrupt(hostile_header("2", "8 8", dims, "2"));
}

TEST(Serialize, HostileHeaderClassCountRejected) {
  expect_corrupt(hostile_header("1", "8", "10", "99999"));
}

TEST(Serialize, HostileHeaderTotalParamCapRejected) {
  // Each dimension is individually legal (<= 16384) but the product
  // blows the total-parameter budget; the cap must catch it from the
  // header alone.
  expect_corrupt(hostile_header("2", "16384 16384", "16384", "2"));
}

TEST(Serialize, NonFiniteWeightRejected) {
  GcnModel model(small_config());
  std::stringstream buffer;
  save_model(model, buffer);
  std::string text = buffer.str();
  // Corrupt the first weight of the first param block.
  const std::size_t block = text.find("param ");
  ASSERT_NE(block, std::string::npos);
  const std::size_t value = text.find('\n', block) + 1;
  const std::size_t end = text.find(' ', value);
  text.replace(value, end - value, "inf");
  expect_corrupt(text);
}

TEST(Serialize, LegacyBareFileStillLoads) {
  // Pre-envelope files are bare save_model text; the loader must keep
  // reading them without the artifact header.
  GcnModel model(small_config());
  const std::string path = "serialize_test_legacy.txt";
  {
    std::ofstream out(path);
    save_model(model, out);
  }
  const GcnModel loaded = load_model_file(path);
  EXPECT_EQ(loaded.config().depth, model.config().depth);
  std::remove(path.c_str());
}

TEST(Serialize, SavedFileIsEnveloped) {
  GcnModel model(small_config());
  const std::string path = "serialize_test_envelope.txt";
  save_model_file(model, path);
  std::ifstream in(path);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "gcnt-artifact");
  std::remove(path.c_str());
}

TEST(Serialize, TamperedFileRejectedAsCorrupt) {
  GcnModel model(small_config());
  const std::string path = "serialize_test_tampered.txt";
  save_model_file(model, path);
  {
    std::fstream file(path, std::ios::in | std::ios::out);
    file.seekp(-10, std::ios::end);
    file.put('#');
  }
  try {
    load_model_file(path);
    FAIL() << "expected gcnt::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCorrupt);
  }
  std::remove(path.c_str());
}

// The prediction file as gcnt infer --out wrote it through ostream.
std::string ostream_predictions(const Netlist& netlist,
                                const Matrix& probabilities) {
  std::ostringstream os;
  os << "# node p(positive) predicted\n";
  for (NodeId v = 0; v < netlist.size(); ++v) {
    const float p = probabilities.at(v, 1);
    os << netlist.node_name(v) << " " << p << " " << (p >= 0.5f ? 1 : 0)
       << "\n";
  }
  return os.str();
}

// write_predictions into a string; its byte count must be the length.
std::string predictions_text(const Netlist& netlist,
                             const Matrix& probabilities) {
  std::ostringstream os;
  const std::size_t bytes = write_predictions(netlist, probabilities, os);
  std::string text = os.str();
  EXPECT_EQ(bytes, text.size());
  return text;
}

// The same design as `gcnt generate --gates <gates> --seed 9` (2000 is
// the CLI tests' cli_opi.bench).
Netlist cli_opi_design(std::size_t gates = 2000) {
  GeneratorConfig config;
  config.target_gates = gates;
  config.seed = 9;
  config.primary_inputs = 64;
  config.primary_outputs = 32;
  config.flip_flops = config.target_gates / 24;
  config.trap_fraction = 0.02;
  return generate_circuit(config);
}

TEST(FormatPredictions, MatchesOstreamOnEdgeValues) {
  const Netlist netlist = cli_opi_design();
  const float edges[] = {0.0f,
                         -0.0f,
                         1.0f,
                         0.5f,
                         0.25f,
                         0.1f,
                         2.0f / 3.0f,
                         1e-7f,
                         1e-5f,
                         1e-4f,
                         1.234567e-4f,
                         0.999999f,
                         0.9999995f,
                         0.99999994f,
                         123456.0f,
                         1234567.0f,
                         1e10f,
                         1e-40f,
                         std::numeric_limits<float>::denorm_min(),
                         std::numeric_limits<float>::min(),
                         std::numeric_limits<float>::max(),
                         std::numeric_limits<float>::infinity(),
                         -std::numeric_limits<float>::infinity(),
                         std::numeric_limits<float>::quiet_NaN()};
  Matrix probabilities(netlist.size(), 2);
  Rng rng(17);
  for (std::size_t v = 0; v < netlist.size(); ++v) {
    float p = 0.0f;
    if (v < std::size(edges)) {
      p = edges[v];
    } else if (v % 2 == 0) {
      p = static_cast<float>(rng.uniform(0.0, 1.0));
    } else {
      // Arbitrary finite bit patterns: every exponent, both signs.
      const auto bits = static_cast<std::uint32_t>(rng());
      std::memcpy(&p, &bits, sizeof p);
      if (!std::isfinite(p)) p = 0.75f;
    }
    probabilities.at(v, 1) = p;
  }
  EXPECT_EQ(predictions_text(netlist, probabilities),
            ostream_predictions(netlist, probabilities));
}

TEST(FormatPredictions, CliOpiFileIsByteIdenticalToOstreamWriter) {
  const Netlist netlist = cli_opi_design();
  GraphTensors tensors = build_graph_tensors(netlist);
  tensors.standardize_features();
  const GcnModel model(GcnConfig{});
  const Matrix probabilities = softmax(model.infer(tensors));
  const std::string text = predictions_text(netlist, probabilities);
  EXPECT_EQ(text, ostream_predictions(netlist, probabilities));
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(),
                                                '\n')),
            netlist.size() + 1);
}

// A file several write chunks long is the same bytes as one string.
TEST(FormatPredictions, ChunkedWriteMatchesOstreamWriter) {
  const Netlist netlist = cli_opi_design(12000);
  Matrix probabilities(netlist.size(), 2);
  for (std::size_t v = 0; v < netlist.size(); ++v) {
    probabilities.at(v, 1) = static_cast<float>(v % 997) / 996.0f;
  }
  const std::string text = predictions_text(netlist, probabilities);
  EXPECT_GT(text.size(), std::size_t{3} << 16);
  EXPECT_EQ(text, ostream_predictions(netlist, probabilities));
}

}  // namespace
}  // namespace gcnt
