#include "dft/impact.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>

#include "common/parallel.h"
#include "common/trace.h"
#include "gcn/vec_ops.h"

namespace gcnt {

namespace {

/// Sentinel id for the tentative OP node.
constexpr NodeId kVirtualOp = kInvalidNode;

/// Blocks per kernel thread in impacts(): cone costs vary by orders of
/// magnitude, so finer blocks keep every worker busy to the end.
constexpr std::size_t kBlocksPerThread = 8;

/// Initial scratch capacity: room for the D = 3 neighbourhood of a
/// 96-node cone on the paper's model, so a scratch rarely grows.
constexpr std::size_t kMemoSlots = std::size_t{1} << 15;
constexpr std::size_t kConeSlots = 512;
constexpr std::size_t kArenaFloats = std::size_t{1} << 18;

/// Open-addressing map from 64-bit keys to 32-bit values with an O(1)
/// clear(): a slot is live only while its stamp equals the current epoch.
/// Capacity (a power of two) doubles at half load and is kept across
/// clears.
class EpochMap {
 public:
  explicit EpochMap(std::size_t slots) : slots_(slots) {}

  void clear() {
    size_ = 0;
    if (++epoch_ == 0) {  // wrapped: stale stamps could read as live
      for (Slot& slot : slots_) slot.stamp = 0;
      epoch_ = 1;
    }
  }

  const std::uint32_t* find(std::uint64_t key) const {
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      const Slot& slot = slots_[i];
      if (slot.stamp != epoch_) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }

  /// `key` must not be present.
  void insert(std::uint64_t key, std::uint32_t value) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    place(key, value);
    ++size_;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t value = 0;
    std::uint32_t stamp = 0;
  };
  std::size_t mask() const noexcept { return slots_.size() - 1; }
  std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
           mask();
  }
  void place(std::uint64_t key, std::uint32_t value) {
    std::size_t i = home(key);
    while (slots_[i].stamp == epoch_) i = (i + 1) & mask();
    slots_[i] = {key, value, epoch_};
  }
  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.stamp == epoch_) place(slot.key, slot.value);
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 1;
  std::size_t size_ = 0;
};

std::uint64_t memo_key(std::size_t stage, int depth, NodeId v) {
  return static_cast<std::uint64_t>(v) |
         (static_cast<std::uint64_t>(depth) << 32) |
         (static_cast<std::uint64_t>(stage) << 40);
}

}  // namespace

/// One evaluating thread's memo and buffers (see impact.h).
struct ImpactEvaluator::Scratch {
  explicit Scratch(const std::vector<const GcnModel*>& stages)
      : memo(kMemoSlots), co(kConeSlots) {
    arena.reserve(kArenaFloats);  // untouched until used
    std::size_t head_width = 0;
    for (const GcnModel* stage : stages) {
      const auto& encoders = stage->encoders();
      if (aggregate.size() < encoders.size()) aggregate.resize(encoders.size());
      for (std::size_t d = 0; d < encoders.size(); ++d) {
        if (aggregate[d].size() < encoders[d].in_features()) {
          aggregate[d].resize(encoders[d].in_features());
        }
      }
      for (const Linear& layer : stage->fc_layers()) {
        head_width = std::max(head_width, layer.out_features());
      }
    }
    head[0].resize(head_width);
    head[1].resize(head_width);
  }

  /// Forgets every memoized embedding and tentative CO value.
  void reset(NodeId candidate) {
    target = candidate;
    memo.clear();
    co.clear();
    arena_used = 0;
  }

  /// Offset of `n` fresh arena floats. Growing the arena moves it, so
  /// pointers into it are re-derived from offsets after any allocation.
  std::uint32_t alloc(std::size_t n) {
    if (arena_used + n > arena.size()) arena.resize(arena_used + n);
    const auto offset = static_cast<std::uint32_t>(arena_used);
    arena_used += n;
    return offset;
  }

  NodeId target = kInvalidNode;
  EpochMap memo;  ///< (stage, depth, node) -> arena offset of the embedding
  EpochMap co;    ///< cone node -> tentative SCOAP CO
  std::vector<float> arena;
  std::size_t arena_used = 0;
  /// aggregate[d - 1]: the aggregation buffer of depth d.
  std::vector<std::vector<float>> aggregate;
  std::vector<float> head[2];  ///< FC head ping-pong rows
};

ImpactEvaluator::ImpactEvaluator(std::vector<const GcnModel*> stages,
                                 const Netlist& netlist,
                                 const GraphTensors& tensors,
                                 const ScoapMeasures& scoap,
                                 const std::vector<std::uint32_t>& levels)
    : stages_(std::move(stages)),
      netlist_(&netlist),
      tensors_(&tensors),
      scoap_(&scoap),
      levels_(&levels) {}

std::uint32_t ImpactEvaluator::embed(std::size_t stage, NodeId v, int depth,
                                     Scratch& scratch) const {
  const std::uint64_t key = memo_key(stage, depth, v);
  if (const std::uint32_t* hit = scratch.memo.find(key)) return *hit;

  std::uint32_t offset = 0;
  if (depth == 0) {
    offset = scratch.alloc(kNodeFeatureDim);
    float* out = scratch.arena.data() + offset;
    if (v == kVirtualOp) {
      // The paper assigns the tentative OP node attributes [0, 1, 1, 0].
      out[0] = tensors_->encode(0, 0.0);
      out[1] = tensors_->encode(1, 1.0);
      out[2] = tensors_->encode(2, 1.0);
      out[3] = tensors_->encode(3, 0.0);
    } else {
      const float* row = tensors_->features.row(v);
      std::copy(row, row + kNodeFeatureDim, out);
      const std::uint32_t* co = scratch.co.find(v);
      if (co != nullptr && *co != scoap_->co[v]) {
        out[3] = tensors_->encode(3, *co);
      }
    }
  } else {
    const GcnModel& model = *stages_[stage];
    const auto layer_index = static_cast<std::size_t>(depth - 1);
    const Linear& layer = model.encoders()[layer_index];
    const std::size_t dim = layer.in_features();
    float* aggregated = scratch.aggregate[layer_index].data();
    const SimdOps& ops = simd_ops();
    // Deeper recursion only touches shallower aggregation buffers, and
    // the arena pointer is re-read after each embed() call.
    const std::uint32_t self = embed(stage, v, depth - 1, scratch);
    std::copy_n(scratch.arena.data() + self, dim, aggregated);
    const auto add = [&](float weight, NodeId u) {
      const std::uint32_t neighbour = embed(stage, u, depth - 1, scratch);
      ops.axpy(aggregated, scratch.arena.data() + neighbour, weight, dim);
    };
    const float wp = model.w_pr();
    const float ws = model.w_su();
    if (v == kVirtualOp) {
      // The virtual OP's only neighbor is its target (a predecessor).
      add(wp, scratch.target);
    } else {
      for (NodeId u : netlist_->fanins(v)) add(wp, u);
      for (NodeId w : netlist_->fanouts(v)) add(ws, w);
      // Tentative structural edit: target gains the OP as a successor.
      if (v == scratch.target) add(ws, kVirtualOp);
    }
    offset = scratch.alloc(layer.out_features());
    float* out = scratch.arena.data() + offset;
    apply_linear_row(layer, aggregated, out);
    ops.relu(out, layer.out_features());
  }
  scratch.memo.insert(key, offset);
  return offset;
}

bool ImpactEvaluator::cascade_positive(NodeId v, Scratch& scratch) const {
  for (std::size_t stage = 0; stage < stages_.size(); ++stage) {
    const GcnModel& model = *stages_[stage];
    const std::uint32_t offset =
        embed(stage, v, model.config().depth, scratch);
    const auto& fc = model.fc_layers();
    const float* h = scratch.arena.data() + offset;
    for (std::size_t i = 0; i < fc.size(); ++i) {
      float* out = scratch.head[i % 2].data();
      apply_linear_row(fc[i], h, out);
      if (i + 1 < fc.size()) simd_ops().relu(out, fc[i].out_features());
      h = out;
    }
    if (h[1] <= h[0]) return false;  // this stage filters v out
  }
  return true;
}

int ImpactEvaluator::impact_of(NodeId target,
                               const std::vector<std::int32_t>& predictions,
                               std::size_t cone_limit) const {
  Scratch scratch(stages_);
  std::size_t cone_nodes = 0;
  return impact_of(target, predictions, cone_limit, scratch, cone_nodes);
}

int ImpactEvaluator::impact_of(NodeId target,
                               const std::vector<std::int32_t>& predictions,
                               std::size_t cone_limit, Scratch& scratch,
                               std::size_t& cone_nodes) const {
  std::vector<NodeId> cone = netlist_->fanin_cone(target, cone_limit);
  cone.push_back(target);

  int before = 0;
  for (NodeId v : cone) before += predictions[v] == 1 ? 1 : 0;
  if (before == 0) return 0;

  // Tentative SCOAP CO update, restricted to the capped cone (descending
  // level = valid reverse-topological order within the cone).
  scratch.reset(target);
  std::sort(cone.begin(), cone.end(), [&](NodeId a, NodeId b) {
    return (*levels_)[a] > (*levels_)[b];
  });
  const auto co_of = [&](NodeId g) {
    const std::uint32_t* co = scratch.co.find(g);
    return co != nullptr ? *co : scoap_->co[g];
  };
  for (NodeId v : cone) {
    if (v == target) {
      scratch.co.insert(v, 0);  // the OP observes it directly
      continue;
    }
    if (is_sink(netlist_->type(v))) continue;
    scratch.co.insert(
        v, observability_through_fanouts(*netlist_, v, *scoap_, co_of));
  }

  int after = 0;
  for (NodeId v : cone) after += cascade_positive(v, scratch) ? 1 : 0;
  cone_nodes += cone.size();
  return before - after;
}

std::vector<int> ImpactEvaluator::impacts(
    const std::vector<NodeId>& candidates,
    const std::vector<std::int32_t>& predictions,
    std::size_t cone_limit) const {
  TraceSpan span("dft.impact_rank");
  std::vector<int> result(candidates.size(), 0);
  const BlockPlan plan = plan_blocks(candidates.size(), 2, kBlocksPerThread);
  std::vector<std::size_t> cone_nodes(plan.count, 0);
  // One scratch per concurrently running block (the pool's workers plus
  // the caller), made here and passed from block to block. Memory a
  // worker thread allocates lands in its own malloc arena, which keeps it
  // resident after it is freed; scratches from the calling thread keep
  // the sweep's peak RSS from growing with the thread count.
  std::mutex mutex;
  std::vector<std::unique_ptr<Scratch>> idle;
  while (idle.size() < std::min(plan.count, kernel_threads() + 1)) {
    idle.push_back(std::make_unique<Scratch>(stages_));
  }
  run_blocks(plan, [&](std::size_t block, std::size_t begin, std::size_t end) {
    std::unique_ptr<Scratch> scratch;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!idle.empty()) {
        scratch = std::move(idle.back());
        idle.pop_back();
      }
    }
    if (!scratch) scratch = std::make_unique<Scratch>(stages_);
    for (std::size_t i = begin; i < end; ++i) {
      result[i] = impact_of(candidates[i], predictions, cone_limit, *scratch,
                            cone_nodes[block]);
    }
    std::lock_guard<std::mutex> lock(mutex);
    idle.push_back(std::move(scratch));
  });
  span.arg("candidates", static_cast<double>(candidates.size()));
  span.arg("cone_nodes",
           static_cast<double>(std::accumulate(cone_nodes.begin(),
                                               cone_nodes.end(),
                                               std::size_t{0})));
  return result;
}

}  // namespace gcnt
