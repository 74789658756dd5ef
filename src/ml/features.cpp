#include "ml/features.h"

namespace gcnt {

std::size_t cone_feature_dim(const ConeFeatureOptions& options) noexcept {
  return (options.fanin_nodes + options.fanout_nodes + 1) * 4;
}

Matrix extract_cone_features(const Netlist& netlist,
                             const Matrix& node_features,
                             const std::vector<std::uint32_t>& rows,
                             const ConeFeatureOptions& options) {
  const std::size_t dim = cone_feature_dim(options);
  Matrix out(rows.size(), dim, 0.0f);

  const auto copy_node = [&](float* dst, NodeId v) {
    const float* src = node_features.row(v);
    for (std::size_t c = 0; c < 4; ++c) dst[c] = src[c];
  };

  std::vector<std::uint32_t> seen(netlist.size(), ~std::uint32_t{0});
  std::vector<NodeId> cone;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const NodeId v = rows[k];
    float* row = out.row(k);
    copy_node(row, v);
    std::size_t offset = 4;
    netlist.fanin_cone(v, options.fanin_nodes, cone, seen, 0);
    seen[v] = ~std::uint32_t{0};
    for (NodeId u : cone) {
      seen[u] = ~std::uint32_t{0};
      copy_node(row + offset, u);
      offset += 4;
    }
    offset = 4 + options.fanin_nodes * 4;  // fan-out block starts here
    for (NodeId u : netlist.fanout_cone(v, options.fanout_nodes)) {
      copy_node(row + offset, u);
      offset += 4;
    }
  }
  return out;
}

}  // namespace gcnt
