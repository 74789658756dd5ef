#pragma once
// Deterministic fault injection for exercising recovery paths.
//
// Probes sit at I/O and allocation boundaries (artifact writes/reads,
// checkpoint loads, the trainer's epoch boundary) and are disarmed by
// default: a disarmed probe is one acquire load of the published spec
// and a branch, the same discipline as the stats layer. Arm them with the
// GCNT_FAULT_INJECT environment variable or set_fault_spec(); every probe
// is counted and seeded, so a failing run replays exactly.
//
// Spec syntax (semicolon-separated clauses, comma-separated params):
//
//   GCNT_FAULT_INJECT="fail-write:nth=3;short-write:nth=1,bytes=40;
//                      bitflip-read:nth=2,seed=7;alloc-fail:nth=1"
//
//   fail-write:nth=N            Nth write probe throws Error{kIo} before
//                               the artifact is renamed into place (the
//                               target keeps its previous contents).
//   short-write:nth=N[,bytes=B] Nth write probe truncates the payload to
//                               B bytes (default half) and lets the
//                               rename proceed — a torn artifact the
//                               loader must reject by checksum.
//   bitflip-read:nth=N[,seed=S] Nth read probe flips one seeded-
//                               deterministic bit in the payload before
//                               checksum verification.
//   alloc-fail:nth=N            Nth allocation probe throws
//                               Error{kResource}.
//
// Serve-path chaos clauses (probes wired into the `gcnt serve` I/O and
// dispatch paths; `every=K` repeats the fault at nth, nth+K, nth+2K, ...):
//
//   serve-torn-read:nth=N[,every=K]   Nth decoded request frame is
//                                     treated as torn: typed corrupt
//                                     reply, connection dropped.
//   serve-short-write:nth=N[,every=K] Nth reply write truncates the
//                                     frame mid-payload and drops the
//                                     connection.
//   serve-delay:nth=N[,every=K,ms=M]  Nth dispatched request stalls its
//                                     worker M ms (default 25) before
//                                     handling — feeds the watchdog,
//                                     deadline, and brownout paths.
//   serve-alloc:nth=N[,every=K]       Nth serve decode probe throws
//                                     Error{kResource} (alloc-fail at
//                                     the request-decode boundary).
//
// `nth` is 1-based and counts probes of that site process-wide; 0 (or an
// absent clause) leaves the site disarmed. Fired and probed events are
// visible as `faultinject.*` stats counters when stats are enabled.

#include <cstddef>
#include <cstdint>
#include <string>

namespace gcnt {

struct FaultSpec {
  std::uint64_t fail_write_nth = 0;
  std::uint64_t short_write_nth = 0;
  std::uint64_t short_write_bytes = 0;  ///< 0 = half of the payload
  std::uint64_t bitflip_read_nth = 0;
  std::uint64_t bitflip_seed = 1;
  std::uint64_t alloc_fail_nth = 0;

  // Serve-path chaos clauses; `*_every` repeats the fault past `nth`.
  std::uint64_t serve_torn_read_nth = 0;
  std::uint64_t serve_torn_read_every = 0;
  std::uint64_t serve_short_write_nth = 0;
  std::uint64_t serve_short_write_every = 0;
  std::uint64_t serve_delay_nth = 0;
  std::uint64_t serve_delay_every = 0;
  std::uint64_t serve_delay_ms = 25;
  std::uint64_t serve_alloc_nth = 0;
  std::uint64_t serve_alloc_every = 0;

  bool armed() const noexcept {
    return fail_write_nth || short_write_nth || bitflip_read_nth ||
           alloc_fail_nth || serve_torn_read_nth || serve_short_write_nth ||
           serve_delay_nth || serve_alloc_nth;
  }
};

/// Parses the GCNT_FAULT_INJECT syntax above. Throws Error{kUsage} on an
/// unknown clause or parameter.
FaultSpec parse_fault_spec(const std::string& text);

/// Arms `spec` process-wide and resets all probe counters. Overrides the
/// environment (which is read once, at the first probe). Safe while
/// probes run on other threads: each probe reads either the old spec or
/// the new one, whole.
void set_fault_spec(const FaultSpec& spec);

/// Disarms every probe and resets counters.
void clear_fault_injection();

/// True when any probe is armed.
bool fault_injection_enabled() noexcept;

// ---- Probes (called by the instrumented boundaries) -----------------------

/// Write-boundary probe. Throws Error{kIo} when the fail-write clause
/// fires on this call; otherwise returns the number of payload bytes that
/// should actually be written: `intended`, or a truncation when the
/// short-write clause fires.
std::size_t fault_write_probe(std::size_t intended_bytes);

/// Read-boundary probe: may flip one deterministic bit of [data, data+len).
void fault_read_probe(void* data, std::size_t len);

/// Allocation/capacity probe. Throws Error{kResource} when the alloc-fail
/// clause fires; `what` names the requesting site in the error message.
void fault_alloc_probe(const char* what);

// ---- Serve-path probes (chaos harness) ------------------------------------

/// Request-read probe: true when the serve-torn-read clause fires — the
/// server must treat the just-decoded frame as torn (typed corrupt
/// reply, drop the connection).
bool fault_serve_read_probe();

/// Reply-write probe: true when the serve-short-write clause fires — the
/// server must truncate this reply mid-frame and drop the connection.
bool fault_serve_write_probe();

/// Worker-dispatch probe: milliseconds this request's worker must stall
/// before handling (0 = no fault).
std::uint64_t fault_serve_delay_probe();

/// Request-decode allocation probe. Throws Error{kResource} when the
/// serve-alloc clause fires; `what` names the opcode being decoded.
void fault_serve_alloc_probe(const char* what);

}  // namespace gcnt
