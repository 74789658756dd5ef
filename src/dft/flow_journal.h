#pragma once
// Append-only insertion journal for the iterative OPI/CPI flows.
//
// The sweeps are long-running (predict → rank → insert, for many rounds
// over million-node graphs); the journal makes them restartable: each
// iteration's accepted insertion batch is appended — and fsync'd — as one
// self-checksummed record *before* it is applied, so after a crash the
// flow re-reads the original netlist, replays every complete record
// (applying insertions deterministically, without re-running prediction
// or ranking), and continues the sweep at the next iteration. The
// resumed run selects the identical insertion sequence an uninterrupted
// sweep would (pinned by tests/robustness_test.cpp).
//
// On-disk format (text, one record per line, each line ending in the
// CRC32C of everything before it):
//
//   gcnt-flow-journal v1 <flow> <design> <node-count> <crc>
//   I <iteration> <count> <target>:<flag> ... <crc>
//
// <flag> is 0 for observe points; for control points it is 1 when the
// inserted CP drives toward one. A torn final line (the crash happened
// mid-append) is detected by checksum and truncated on resume; a bad
// checksum anywhere earlier means real corruption and raises
// Error{kCorrupt}.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "netlist/netlist.h"

namespace gcnt {

struct FlowJournalRecord {
  std::size_t iteration = 0;
  /// (target node, flag) in insertion order; flag is flow-specific.
  std::vector<std::pair<NodeId, int>> entries;
};

/// The journal settings of the OPI and CPI flows.
struct FlowJournalOptions {
  /// When non-empty, each iteration's accepted insertion batch is appended
  /// to this journal, fsync'd before it is applied, so an interrupted
  /// sweep can be resumed mid-flow.
  std::string journal_path;
  /// With a journal_path: replay a matching journal left by an interrupted
  /// sweep (re-applying its insertions on the original netlist without
  /// re-running prediction), then continue at the next iteration. Safe to
  /// pass always: with no journal on disk the sweep starts fresh.
  bool resume = false;
  /// Identity recorded in the journal header (e.g. the netlist file name);
  /// a resumed journal must have been written for the same design.
  std::string journal_design = "netlist";
};

class FlowJournal {
 public:
  FlowJournal() = default;
  ~FlowJournal();
  FlowJournal(const FlowJournal&) = delete;
  FlowJournal& operator=(const FlowJournal&) = delete;

  /// Opens `path` for flow `flow` ("opi" / "cpi") over `design` with
  /// `node_count` nodes *before any insertion*. With resume=true an
  /// existing journal is validated against those identifiers and parsed
  /// into records() (a torn tail is truncated); otherwise any existing
  /// file is discarded and a fresh header written. Throws gcnt::Error —
  /// kIo on filesystem trouble, kVersion/kCorrupt on a bad journal,
  /// kUsage when the journal belongs to a different design.
  void open(const std::string& path, const std::string& flow,
            const std::string& design, std::size_t node_count, bool resume);

  bool is_open() const noexcept { return fd_ >= 0; }

  /// Complete records recovered by open(..., resume=true).
  const std::vector<FlowJournalRecord>& records() const noexcept {
    return records_;
  }

  /// Appends one record and fsyncs it to disk before returning — after
  /// append() returns, the batch survives any crash. Throws Error{kIo}.
  void append(const FlowJournalRecord& record);

  void close() noexcept;

  /// Closes and deletes the journal file (called after the sweep's final
  /// artifact is safely written; a stale journal must not replay into a
  /// future run).
  void remove() noexcept;

 private:
  int fd_ = -1;
  std::string path_;
  std::vector<FlowJournalRecord> records_;
};

}  // namespace gcnt
