#pragma once
// Durable, verifiable artifact I/O — the persistence floor every saved
// file in the system stands on.
//
// Two layers:
//
//  * atomic_write_file(path, writer): the writer callback streams the
//    contents straight into `<path>.tmp.<pid>`, which is flushed and
//    fsync'd, then renamed over `path` (with a directory fsync). A crash
//    at any instant leaves either the previous contents or the new
//    contents — never a truncated mix.
//
//  * the versioned envelope: a one-line header
//
//        gcnt-artifact v1 <kind> <payload-bytes> <crc32c-hex>\n
//
//    followed by the raw payload. read_artifact_file() verifies the
//    version, the expected kind, the declared length against the actual
//    file size, and the CRC32C of the payload, throwing a structured
//    gcnt::Error (kIo / kVersion / kCorrupt) on any mismatch — a torn or
//    bit-flipped artifact is always rejected, never silently accepted.
//
// Fault-injection probes (common/fault_inject.h) are wired into both
// layers: write probes can fail or truncate the payload, read probes can
// flip a payload bit before verification, and the payload allocation is
// guarded by an alloc probe.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace gcnt {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41 reflected) of `len` bytes.
/// `crc` chains partial computations (pass the previous return value).
std::uint32_t crc32c(const void* data, std::size_t len,
                     std::uint32_t crc = 0) noexcept;

/// Atomically replaces `path` with the bytes `writer` produces: temp file
/// in the same directory, flush, fsync, rename, directory fsync. The
/// writer writes into the temp file's stream, so it need not hold the
/// contents in memory. Throws Error{kIo} on any failure, and rethrows
/// what the writer throws; either way the temp file is removed and the
/// previous contents of `path` survive.
void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& writer);

/// Wraps `payload` in the versioned envelope and writes it atomically.
void write_artifact_file(const std::string& path, const std::string& kind,
                         const std::string& payload);

/// Reads and verifies an enveloped artifact; returns the payload.
/// Throws Error{kIo} when the file cannot be opened, Error{kVersion} on a
/// format-version mismatch, Error{kCorrupt} on a wrong kind, a length
/// mismatch, or a CRC failure.
std::string read_artifact_file(const std::string& path,
                               const std::string& kind);

/// True when `path` starts with the envelope magic (used to keep loading
/// legacy bare-format files). Returns false when the file cannot be read.
bool is_artifact_file(const std::string& path);

}  // namespace gcnt
