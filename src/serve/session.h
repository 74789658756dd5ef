#pragma once
// Resident state of the `gcnt serve` daemon: the hot-reloadable model
// registry and named netlist sessions.
//
// A session keeps a netlist, its EditableDesign (gcn/editable_design.h)
// and the last-forward caches resident between requests, so an infer
// request on a warm session is a cache hit and an append-observe request
// costs one dirty-cone re-propagation instead of a full reload + forward
// the single-shot CLI pays. Logits are bit-identical to
// `GcnModel::infer` on tensors freshly built from the same netlist —
// serving changes where the bits are computed, never which bits
// (pinned by tests/serve_server_test.cpp).
//
// The registry owns the current model behind a shared_ptr; reload()
// re-reads the artifact (checksum-verified by load_model_file) and swaps
// atomically under a mutex. Sessions compare generations per request and
// rebuild their inference caches on the first request after a swap, so
// in-flight requests finish on the model they started with.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.h"
#include "gcn/editable_design.h"
#include "gcn/model.h"
#include "gcn/workspace.h"
#include "netlist/netlist.h"

namespace gcnt::serve {

/// Process-wide model state with atomic hot reload.
class ModelRegistry {
 public:
  struct Snapshot {
    std::shared_ptr<const GcnModel> model;
    std::uint64_t generation = 0;
  };

  /// Loads the initial model (generation 1). Throws like load_model_file.
  /// `precision` kInt8 calibrates the int8 inference tier at load time
  /// (resolve the serve --precision flag / GCNT_PRECISION through
  /// resolve_precision first); kFp32 keeps whatever tier the artifact
  /// itself encodes (v2 quantized artifacts stay int8, v1 stays fp32).
  /// The same rule re-applies on every reload().
  explicit ModelRegistry(std::string path,
                         Precision precision = Precision::kFp32);

  Snapshot snapshot() const;

  /// Re-reads the artifact at `path` (or the construction path when
  /// empty), verifies it, and swaps it in. The old model stays alive
  /// until the last session snapshot drops it. Returns the new
  /// generation; on failure the current model is untouched.
  std::uint64_t reload(const std::string& path = {});

 private:
  mutable std::mutex mutex_;
  std::string path_;
  Precision precision_ = Precision::kFp32;
  std::shared_ptr<const GcnModel> model_;
  std::uint64_t generation_ = 1;
};

/// One resident netlist. All request handling happens under mutex();
/// distinct sessions serve concurrently (per-session engines and
/// workspaces, shared kernel pool underneath).
class ServeSession {
 public:
  ServeSession(std::string name, Netlist netlist, bool standardize);

  const std::string& name() const noexcept { return name_; }
  std::mutex& mutex() noexcept { return mutex_; }
  std::size_t node_count() const noexcept { return netlist_.size(); }
  std::size_t edge_count() const noexcept { return netlist_.edge_count(); }

  /// Whole-graph logits (node order, N x num_classes) for the model in
  /// `snapshot`. Warm sessions with no pending edits return the cached
  /// matrix; pending observe/control edits re-propagate only the dirty
  /// cone; a model-generation change rebuilds the caches. `ws` is the
  /// calling worker's reusable scratch (used for full forwards).
  const Matrix& logits(const ModelRegistry::Snapshot& snapshot,
                       ForwardWorkspace& ws);

  /// Observe/control edits go through the design (which checks targets
  /// with Error{kUsage}); the next logits() re-propagates their cone.
  EditableDesign& design() noexcept { return design_; }

  /// Brownout answer source: the last logits this session computed for
  /// the model generation in `snapshot`, or nullptr when none exist.
  /// The returned matrix may be STALE — pending edits have not been
  /// propagated into it — which is exactly the degraded-but-fast tier
  /// brownout trades for skipping the forward. Never runs a forward.
  const Matrix* cached_logits(
      const ModelRegistry::Snapshot& snapshot) const noexcept;

 private:
  std::string name_;
  std::mutex mutex_;
  Netlist netlist_;
  /// Derived state and, once the session is edited, the cached-embedding
  /// engine (constructed on the first edited forward, dropped on model
  /// reload).
  EditableDesign design_;

  std::shared_ptr<const GcnModel> model_;  ///< engine's model stays alive
  std::uint64_t model_generation_ = 0;
  /// Pure-infer cache: sessions without an engine skip the per-layer
  /// embedding cache entirely — the full forward runs through the calling
  /// worker's ForwardWorkspace and only the logits persist. Fresh while
  /// computed under the current generation: an edit attaches the engine,
  /// and only a model reload detaches it again.
  Matrix plain_logits_;
  std::uint64_t plain_generation_ = 0;
};

}  // namespace gcnt::serve
