#include "gcn/shard.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/artifact.h"
#include "common/error.h"
#include "common/stats.h"
#include "common/trace.h"

namespace gcnt {

// ---------------------------------------------------------------------------
// ShardStore

void ShardStore::configure(std::string dir) {
  clear();
  dir_ = std::move(dir);
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      throw Error(ErrorKind::kIo,
                  "ShardStore: cannot create spill dir '" + dir_ +
                      "': " + ec.message());
    }
  }
}

std::string ShardStore::path_of(const std::string& key) const {
  return dir_ + "/" + key + ".blk";
}

std::string ShardStore::block_path(int layer, std::size_t shard) const {
  return path_of("E" + std::to_string(layer) + "_S" + std::to_string(shard));
}

std::string ShardStore::export_path(int layer, std::size_t producer,
                                    std::size_t consumer) const {
  return path_of("X" + std::to_string(layer) + "_S" +
                 std::to_string(producer) + "_to_S" +
                 std::to_string(consumer));
}

void ShardStore::put(int layer, std::size_t shard, const Matrix& block) {
  put_block("E" + std::to_string(layer) + "_S" + std::to_string(shard),
            block);
}

void ShardStore::get(int layer, std::size_t shard, Matrix& out) const {
  get_block("E" + std::to_string(layer) + "_S" + std::to_string(shard), out);
}

void ShardStore::put_export(int layer, std::size_t producer,
                            std::size_t consumer, const Matrix& block) {
  put_block("X" + std::to_string(layer) + "_S" + std::to_string(producer) +
                "_to_S" + std::to_string(consumer),
            block);
}

void ShardStore::get_export(int layer, std::size_t producer,
                            std::size_t consumer, Matrix& out) const {
  get_block("X" + std::to_string(layer) + "_S" + std::to_string(producer) +
                "_to_S" + std::to_string(consumer),
            out);
}

void ShardStore::put_block(const std::string& key, const Matrix& block) {
  if (!on_disk()) {
    memory_[key].copy_from(block);
    return;
  }
  static Counter& writes =
      StatsRegistry::instance().counter("shard.spill_writes");
  static Counter& write_bytes =
      StatsRegistry::instance().counter("shard.spill_write_bytes");
  const std::uint64_t rows = block.rows();
  const std::uint64_t cols = block.cols();
  std::string payload(16 + block.rows() * block.cols() * sizeof(float), '\0');
  std::memcpy(&payload[0], &rows, 8);
  std::memcpy(&payload[8], &cols, 8);
  for (std::size_t r = 0; r < block.rows(); ++r) {
    std::memcpy(&payload[16 + r * block.cols() * sizeof(float)], block.row(r),
                block.cols() * sizeof(float));
  }
  write_artifact_file(path_of(key), "shard-block", payload);
  writes.add();
  write_bytes.add(payload.size());
  written_.insert(key);
}

void ShardStore::get_block(const std::string& key, Matrix& out) const {
  if (!on_disk()) {
    const auto it = memory_.find(key);
    if (it == memory_.end()) {
      throw Error(ErrorKind::kInternal,
                  "ShardStore: missing in-memory block '" + key + "'");
    }
    out.resize(it->second.rows(), it->second.cols());
    out.copy_from(it->second);
    return;
  }
  static Counter& reads =
      StatsRegistry::instance().counter("shard.spill_reads");
  static Counter& read_bytes =
      StatsRegistry::instance().counter("shard.spill_read_bytes");
  const std::string payload = read_artifact_file(path_of(key), "shard-block");
  if (payload.size() < 16) {
    throw Error(ErrorKind::kCorrupt,
                "ShardStore: block '" + key + "' shorter than its header");
  }
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::memcpy(&rows, payload.data(), 8);
  std::memcpy(&cols, payload.data() + 8, 8);
  // The shape comes from untrusted bytes: bound it by the payload before
  // multiplying, so a hostile header cannot wrap rows * cols to a size
  // that passes the check.
  const std::size_t body = payload.size() - 16;
  if ((cols == 0 ? rows != 0 : rows > body / sizeof(float) / cols) ||
      rows * cols * sizeof(float) != body) {
    throw Error(ErrorKind::kCorrupt,
                "ShardStore: block '" + key + "' size/shape mismatch");
  }
  out.resize(rows, cols);
  if (body != 0) std::memcpy(out.data(), payload.data() + 16, body);
  reads.add();
  read_bytes.add(payload.size());
}

void ShardStore::clear() {
  memory_.clear();
  for (const std::string& key : written_) {
    std::remove(path_of(key).c_str());
  }
  written_.clear();
}

// ---------------------------------------------------------------------------
// ShardedGcnEngine

ShardedGcnEngine::ShardedGcnEngine(const GcnModel& model,
                                   ShardedGcnOptions options)
    : GcnEngine(model, options.full_fallback_fraction),
      options_(std::move(options)) {
  if (options_.shards == 0) {
    throw Error(ErrorKind::kUsage, "ShardedGcnEngine: shards must be > 0");
  }
  if (options_.halo < 1) {
    throw Error(ErrorKind::kUsage, "ShardedGcnEngine: halo must be >= 1");
  }
  store_.configure(options_.spill_dir);
}

const GraphPartition& ShardedGcnEngine::partition() const {
  if (!has_partition_) {
    throw Error(ErrorKind::kUsage,
                "ShardedGcnEngine::partition: no forward has run yet");
  }
  return partition_;
}

void ShardedGcnEngine::rebuild_all(const GraphTensors& tensors) {
  static Counter& builds =
      StatsRegistry::instance().counter("shard.partition_builds");
  PartitionOptions popts;
  popts.shards = options_.shards;
  popts.halo = options_.halo;
  partition_ = GraphPartition::build(tensors.pred, tensors.succ, popts);
  has_partition_ = true;
  locals_.resize(partition_.shard_count());
  for (std::size_t k = 0; k < partition_.shard_count(); ++k) {
    rebuild_local(tensors, k);
  }
  rebuild_send_views();
  builds.add();
  StatsRegistry::instance().gauge("shard.count").set(
      static_cast<std::int64_t>(partition_.shard_count()));
  StatsRegistry::instance().gauge("shard.halo_rows").set(
      static_cast<std::int64_t>(partition_.total_halo_rows()));
}

void ShardedGcnEngine::rebuild_local(const GraphTensors& tensors,
                                     std::size_t k) {
  const Shard& s = partition_.shard(k);
  LocalShard& ls = locals_[k];
  const int depth = partition_.halo_depth();

  // Merge owners (dist 0) and halo (1..D) into the ascending active list.
  ls.active.clear();
  ls.dist.clear();
  ls.active.reserve(s.owners.size() + s.halo.size());
  ls.dist.reserve(s.owners.size() + s.halo.size());
  std::size_t oi = 0;
  std::size_t hi = 0;
  while (oi < s.owners.size() || hi < s.halo.size()) {
    if (hi >= s.halo.size() ||
        (oi < s.owners.size() && s.owners[oi] < s.halo[hi])) {
      ls.active.push_back(s.owners[oi]);
      ls.dist.push_back(0);
      ++oi;
    } else {
      ls.active.push_back(s.halo[hi]);
      ls.dist.push_back(s.halo_dist[hi]);
      ++hi;
    }
  }

  const auto local_of = [&](std::uint32_t global) {
    const auto it =
        std::lower_bound(ls.active.begin(), ls.active.end(), global);
    if (it == ls.active.end() || *it != global) {
      throw Error(ErrorKind::kInternal,
                  "ShardedGcnEngine: neighbor outside the halo closure");
    }
    return static_cast<std::uint32_t>(it - ls.active.begin());
  };

  // Carve the shard-local CSR forms out of the global ones, preserving
  // each row's nonzero order exactly (the bitwise-identity contract).
  // Rows at dist == D are gather-only: they are never computed inside
  // this shard, so their local rows stay empty.
  const auto carve = [&](const CsrMatrix& global) {
    std::vector<std::uint32_t> row_ptr(ls.active.size() + 1, 0);
    std::vector<std::uint32_t> cols;
    std::vector<float> values;
    const auto& gptr = global.row_ptr();
    const auto& gcols = global.col_index();
    const auto& gvals = global.values();
    for (std::size_t li = 0; li < ls.active.size(); ++li) {
      if (ls.dist[li] <= depth - 1) {
        const std::uint32_t g = ls.active[li];
        for (std::uint32_t e = gptr[g]; e < gptr[g + 1]; ++e) {
          cols.push_back(local_of(gcols[e]));
          values.push_back(gvals[e]);
        }
      }
      row_ptr[li + 1] = static_cast<std::uint32_t>(cols.size());
    }
    return CsrMatrix::from_parts(ls.active.size(), ls.active.size(),
                                 std::move(row_ptr), std::move(cols),
                                 std::move(values));
  };
  ls.pred = carve(tensors.pred);
  ls.succ = carve(tensors.succ);

  ls.rows_within.assign(static_cast<std::size_t>(depth), {});
  for (std::uint32_t li = 0; li < ls.active.size(); ++li) {
    for (int t = ls.dist[li]; t < depth; ++t) {
      ls.rows_within[static_cast<std::size_t>(t)].push_back(li);
    }
  }
  ls.owner_pos_in.assign(static_cast<std::size_t>(depth), {});
  for (int t = 0; t < depth; ++t) {
    const auto& rows = ls.rows_within[static_cast<std::size_t>(t)];
    auto& pos = ls.owner_pos_in[static_cast<std::size_t>(t)];
    pos.reserve(s.owners.size());
    for (std::uint32_t i = 0; i < rows.size(); ++i) {
      if (ls.dist[rows[i]] == 0) pos.push_back(i);
    }
  }

  ls.recv_local.clear();
  ls.recv_local.reserve(s.recv.size());
  for (const ShardRecv& g : s.recv) {
    std::vector<std::uint32_t> pos(g.rows.size());
    for (std::size_t i = 0; i < g.rows.size(); ++i) {
      pos[i] = local_of(g.rows[i]);
    }
    ls.recv_local.push_back(std::move(pos));
  }
}

void ShardedGcnEngine::rebuild_send_views() {
  send_.assign(partition_.shard_count(), {});
  for (std::size_t c = 0; c < partition_.shard_count(); ++c) {
    for (const ShardRecv& g : partition_.shard(c).recv) {
      const auto& owners = partition_.shard(g.producer).owners;
      ExportPlan plan;
      plan.consumer = c;
      plan.positions.resize(g.rows.size());
      std::size_t oi = 0;
      for (std::size_t i = 0; i < g.rows.size(); ++i) {
        while (oi < owners.size() && owners[oi] < g.rows[i]) ++oi;
        if (oi >= owners.size() || owners[oi] != g.rows[i]) {
          throw Error(ErrorKind::kInternal,
                      "ShardedGcnEngine: recv row is not a producer owner");
        }
        plan.positions[i] = static_cast<std::uint32_t>(oi);
      }
      send_[g.producer].push_back(std::move(plan));
    }
  }
}

void ShardedGcnEngine::gather_active(const GraphTensors& tensors,
                                     std::size_t k, int layer, Matrix& out) {
  const LocalShard& ls = locals_[k];
  if (layer == 0) {
    // E_0 in compute order is features.row(node_of(row)).
    out.resize(ls.active.size(), tensors.features.cols());
    for (std::size_t i = 0; i < ls.active.size(); ++i) {
      const float* in = tensors.features.row(tensors.node_of(ls.active[i]));
      std::copy(in, in + tensors.features.cols(), out.row(i));
    }
    return;
  }
  store_.get(layer, k, owner_block_);
  const std::size_t owner_count = partition_.shard(k).owners.size();
  if (owner_block_.rows() != owner_count) {
    throw Error(ErrorKind::kInternal,
                "ShardedGcnEngine: owner block row count drifted");
  }
  out.resize(ls.active.size(), owner_block_.cols());
  const auto& owner_pos = ls.rows_within[0];
  for (std::size_t i = 0; i < owner_count; ++i) {
    const float* in = owner_block_.row(i);
    std::copy(in, in + owner_block_.cols(), out.row(owner_pos[i]));
  }
  const Shard& s = partition_.shard(k);
  for (std::size_t g = 0; g < s.recv.size(); ++g) {
    store_.get_export(layer, s.recv[g].producer, k, xbuf_);
    if (xbuf_.rows() != s.recv[g].rows.size() ||
        xbuf_.cols() != out.cols()) {
      throw Error(ErrorKind::kInternal,
                  "ShardedGcnEngine: export block shape drifted");
    }
    const auto& pos = ls.recv_local[g];
    for (std::size_t i = 0; i < pos.size(); ++i) {
      const float* in = xbuf_.row(i);
      std::copy(in, in + xbuf_.cols(), out.row(pos[i]));
    }
  }
}

void ShardedGcnEngine::put_exports(int layer, std::size_t p,
                                   const Matrix& owner_block) {
  for (const ExportPlan& plan : send_[p]) {
    gather_rows(owner_block, plan.positions, xbuf_);
    store_.put_export(layer, p, plan.consumer, xbuf_);
  }
}

void ShardedGcnEngine::run_fc(const GraphTensors& tensors, const Matrix& input,
                              const std::vector<std::uint32_t>& rows) {
  model_->fc_head(input, Precision::kFp32, ws_, ws_.ping);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const float* src = ws_.ping.row(i);
    std::copy(src, src + ws_.ping.cols(),
              logits_.row(tensors.node_of(rows[i])));
  }
}

void ShardedGcnEngine::full_pass(const GraphTensors& tensors) {
  const std::size_t n = tensors.node_count();
  static KernelStats& stats = kernel_stats("gcn.shard.forward");
  TraceSpan span("gcn.shard.forward", &stats);
  span.arg("nodes", static_cast<double>(n));
  span.arg("shards", static_cast<double>(options_.shards));
  static Counter& forwards =
      StatsRegistry::instance().counter("shard.forwards");
  static Counter& rounds = StatsRegistry::instance().counter("shard.rounds");
  forwards.add();

  if (!has_partition_ || partition_.row_count() != n ||
      cached_pred_nnz_ != tensors.pred.nnz() ||
      cached_succ_nnz_ != tensors.succ.nnz()) {
    rebuild_all(tensors);
  }
  store_.clear();
  logits_.resize(n, model_->config().num_classes);

  const std::size_t layer_count = model_->encoders().size();
  const std::size_t halo = static_cast<std::size_t>(partition_.halo_depth());

  std::size_t done = 0;
  while (done < layer_count) {
    const std::size_t m = std::min(halo, layer_count - done);
    TraceSpan round_span("gcn.shard.round");
    round_span.arg("first_layer", static_cast<double>(done + 1));
    round_span.arg("layers", static_cast<double>(m));
    rounds.add();
    for (std::size_t k = 0; k < partition_.shard_count(); ++k) {
      const LocalShard& ls = locals_[k];
      Matrix* x = &active_a_;
      Matrix* xn = &active_b_;
      gather_active(tensors, k, static_cast<int>(done), *x);
      for (std::size_t j = 1; j <= m; ++j) {
        const std::size_t d = done + j - 1;
        const auto& rows = ls.rows_within[m - j];
        model_->layer_step(d, ls.pred, ls.succ, *x, &rows, Precision::kFp32,
                           ws_, compact_out_);
        // Persist this layer's owner rows (and their halo exports) so the
        // incremental path can later re-propagate any layer.
        gather_rows(compact_out_, ls.owner_pos_in[m - j], owner_block_);
        store_.put(static_cast<int>(d + 1), k, owner_block_);
        if (d + 1 < layer_count) {
          put_exports(static_cast<int>(d + 1), k, owner_block_);
        }
        if (j < m) {
          // Scatter into the next active buffer; rows outside the next
          // compute set's neighborhood are never read.
          xn->resize(ls.active.size(), compact_out_.cols());
          for (std::size_t i = 0; i < rows.size(); ++i) {
            const float* in = compact_out_.row(i);
            std::copy(in, in + compact_out_.cols(), xn->row(rows[i]));
          }
          std::swap(x, xn);
        }
      }
      if (done + m == layer_count) {
        run_fc(tensors, owner_block_, partition_.shard(k).owners);
      }
    }
    done += m;
  }
  cached_pred_nnz_ = tensors.pred.nnz();
  cached_succ_nnz_ = tensors.succ.nnz();
}

void ShardedGcnEngine::dirty_pass(const GraphTensors& tensors,
                                  const std::vector<NodeId>& dirty) {
  const std::size_t n = tensors.node_count();
  static KernelStats& stats = kernel_stats("gcn.shard.update");
  TraceSpan span("gcn.shard.update", &stats);
  span.arg("nodes", static_cast<double>(n));
  span.arg("dirty", static_cast<double>(dirty.size()));
  static Counter& updates = StatsRegistry::instance().counter("shard.updates");
  static Counter& extends =
      StatsRegistry::instance().counter("shard.partition_extends");
  updates.add();

  const std::size_t shard_count = partition_.shard_count();
  std::vector<std::uint8_t> affected_flag(shard_count, 0);
  bool extended = false;
  if (n > cached_nodes_) {
    // Appended rows join the partition; every shard whose halo can have
    // changed gets its local forms rebuilt and (below) its stale export
    // blocks rewritten. New rows are required to be in `dirty`, so their
    // owner blocks are grown and filled by the write-back pass.
    const std::vector<std::size_t> affected =
        partition_.extend(tensors.pred, tensors.succ);
    for (const std::size_t k : affected) {
      rebuild_local(tensors, k);
      affected_flag[k] = 1;
    }
    rebuild_send_views();
    logits_.grow_rows(n);
    extends.add();
    extended = !affected.empty();
    StatsRegistry::instance().gauge("shard.halo_rows").set(
        static_cast<std::int64_t>(partition_.total_halo_rows()));
  }
  cached_pred_nnz_ = tensors.pred.nnz();
  cached_succ_nnz_ = tensors.succ.nnz();
  if (dirty.empty()) return;

  // Group the dirty rows by owning shard; per shard, keep the global
  // compute rows ascending plus their positions in the active list and
  // in the owner block.
  std::vector<std::vector<std::uint32_t>> dirty_global(shard_count);
  for (const NodeId v : dirty) {
    const std::uint32_t row = tensors.row_of(v);
    dirty_global[partition_.owner_of(row)].push_back(row);
  }
  std::vector<std::vector<std::uint32_t>> dirty_local(shard_count);
  std::vector<std::vector<std::uint32_t>> dirty_owner_pos(shard_count);
  std::vector<std::size_t> dirty_shards;
  for (std::size_t k = 0; k < shard_count; ++k) {
    if (dirty_global[k].empty()) continue;
    std::sort(dirty_global[k].begin(), dirty_global[k].end());
    const LocalShard& ls = locals_[k];
    const auto& owners = partition_.shard(k).owners;
    dirty_local[k].resize(dirty_global[k].size());
    dirty_owner_pos[k].resize(dirty_global[k].size());
    for (std::size_t i = 0; i < dirty_global[k].size(); ++i) {
      const std::uint32_t row = dirty_global[k][i];
      dirty_local[k][i] = static_cast<std::uint32_t>(
          std::lower_bound(ls.active.begin(), ls.active.end(), row) -
          ls.active.begin());
      dirty_owner_pos[k][i] = static_cast<std::uint32_t>(
          std::lower_bound(owners.begin(), owners.end(), row) -
          owners.begin());
    }
    dirty_shards.push_back(k);
  }

  const std::size_t layer_count = model_->encoders().size();

  // Layer-synchronous re-propagation: every dirty shard finishes layer d
  // before any shard starts layer d+1, so the halo gathers always read
  // fully updated blocks one layer back. After the last layer a shard's
  // compact output rows are exactly its dirty rows, so the FC head runs
  // on them directly.
  for (std::size_t d = 1; d <= layer_count; ++d) {
    for (const std::size_t k : dirty_shards) {
      gather_active(tensors, k, static_cast<int>(d - 1), active_a_);
      const LocalShard& ls = locals_[k];
      model_->layer_step(d - 1, ls.pred, ls.succ, active_a_, &dirty_local[k],
                         Precision::kFp32, ws_, compact_out_);
      store_.get(static_cast<int>(d), k, owner_block_);
      const auto& owners = partition_.shard(k).owners;
      if (owner_block_.rows() < owners.size()) {
        owner_block_.grow_rows(owners.size());
      }
      for (std::size_t i = 0; i < dirty_owner_pos[k].size(); ++i) {
        const float* in = compact_out_.row(i);
        std::copy(in, in + compact_out_.cols(),
                  owner_block_.row(dirty_owner_pos[k][i]));
      }
      store_.put(static_cast<int>(d), k, owner_block_);
      if (d < layer_count) {
        put_exports(static_cast<int>(d), k, owner_block_);
      } else {
        run_fc(tensors, compact_out_, dirty_global[k]);
      }
    }
    if (extended && d < layer_count) {
      // Consumers whose halo changed also need fresh export blocks from
      // producers with no dirty rows this round (the dirty producers
      // already rewrote theirs above, with the new send lists).
      for (std::size_t p = 0; p < shard_count; ++p) {
        if (!dirty_global[p].empty()) continue;
        bool loaded = false;
        for (const ExportPlan& plan : send_[p]) {
          if (!affected_flag[plan.consumer]) continue;
          if (!loaded) {
            store_.get(static_cast<int>(d), p, owner_block_);
            loaded = true;
          }
          gather_rows(owner_block_, plan.positions, xbuf_);
          store_.put_export(static_cast<int>(d), p, plan.consumer, xbuf_);
        }
      }
    }
  }
}

}  // namespace gcnt
