#pragma once
// EditableDesign: the one owner of the edit -> re-predict protocol shared
// by the OPI flow (Section 4, Fig. 7), the CPI flow (Section 2.2) and
// serve sessions. It edits the caller's netlist and keeps everything
// derived from it consistent: SCOAP measures, logic levels, GraphTensors,
// the dirty-cone tracker and one GcnEngine per cascade stage.
//
// Edits apply lazily. A batch of observation points shares one
// rebuild_csr(); a control point rewires fanouts and shifts SCOAP
// globally, so the next sync rebuilds everything from scratch in the
// previous locality order (the engines' cached rows stay addressable) and
// seeds every feature row that changed. After every predict(), each
// engine's logits are bit-identical to GcnModel::infer(tensors()) (pinned
// by tests/editable_design_test.cpp).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "gcn/engine.h"
#include "gcn/graph_tensors.h"
#include "gcn/incremental.h"
#include "gcn/model.h"
#include "netlist/netlist.h"
#include "scoap/scoap.h"

namespace gcnt {

class EditableDesign {
 public:
  /// What one predict() did.
  struct Prediction {
    bool refreshed = false;          ///< every engine ran a full forward
    std::size_t dirty_rows = 0;      ///< dirty-cone size (incremental path)
    std::size_t full_fallbacks = 0;  ///< engines whose update() fell back
  };

  /// Derives SCOAP, levels and tensors from `netlist`, which must outlive
  /// the design and be edited only through it from now on.
  /// `standardize_features` must match how the models were trained.
  EditableDesign(Netlist& netlist, bool standardize_features);

  /// Replaces the engines: one make_gcn_engine per cascade stage. An
  /// empty list drops them. The next predict() refreshes.
  void set_models(const std::vector<const GcnModel*>& stages,
                  std::size_t shards = 0, int halo = 1);

  /// Inserts an observation point on `target`: SCOAP CO repaired from
  /// `target` up its fan-in cone as far as CO changes, the OP edge queued
  /// and its feature row appended, the changed rows seeded. Returns the
  /// OP node. Throws Error{kUsage} when `target` is out of range or fails
  /// Netlist::can_observe.
  NodeId observe(NodeId target);

  /// Inserts a control point on `target`. Throws Error{kUsage} when
  /// `target` is out of range or fails Netlist::can_control.
  Netlist::ControlPoint control(NodeId target, bool drive_to_one);

  /// Applies pending edits, then refreshes every engine (first call after
  /// set_models()) or updates them over the dirty cone of the deepest
  /// stage. Needs at least one model.
  Prediction predict();

  /// Edits made since the last predict().
  bool has_pending_edits() const noexcept { return !tracker_.empty(); }
  /// True once predict() has seeded the current engines' caches.
  bool primed() const noexcept { return primed_; }
  /// Stage `stage`'s engine; its logits are those of the last predict().
  const GcnEngine& engine(std::size_t stage) const { return *engines_[stage]; }
  std::size_t stage_count() const noexcept { return engines_.size(); }
  /// Cascade prediction of the last predict(): 1 where every stage's
  /// logits pass predicts_positive() (nn/loss.h).
  std::vector<std::int32_t> predictions() const;

  const Netlist& netlist() const noexcept { return netlist_; }

  /// The derived state with every pending edit applied.
  const GraphTensors& tensors() { sync(); return tensors_; }
  const ScoapMeasures& scoap() { sync(); return scoap_; }
  const std::vector<std::uint32_t>& levels() { sync(); return levels_; }

 private:
  void sync();

  Netlist& netlist_;
  bool standardize_;
  ScoapMeasures scoap_;
  std::vector<std::uint32_t> levels_;
  GraphTensors tensors_;
  DirtyConeTracker tracker_;
  bool csr_stale_ = false;       ///< OP edges queued, not yet in the CSRs
  bool rebuild_pending_ = true;  ///< no tensors yet, or a CP rewired fanouts

  std::vector<std::unique_ptr<GcnEngine>> engines_;
  int max_depth_ = 0;
  bool primed_ = false;
};

}  // namespace gcnt
