#include "common/artifact.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/fault_inject.h"
#include "common/stats.h"

namespace gcnt {

namespace {

constexpr const char* kEnvelopeMagic = "gcnt-artifact";
constexpr int kEnvelopeVersion = 1;
/// Declared payload sizes above this are rejected outright so a hostile
/// header cannot drive a multi-GB allocation (1 GiB).
constexpr std::uint64_t kMaxPayloadBytes = 1ULL << 30;

/// CRC-32C lookup table (reflected 0x1EDC6F41), built once.
const std::array<std::uint32_t, 256>& crc32c_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

[[noreturn]] void fail_io(const std::string& what, const std::string& path) {
  const int saved_errno = errno;
  std::string message = what + ": " + path;
  if (saved_errno != 0) {
    message += " (";
    message += std::strerror(saved_errno);
    message += ")";
  }
  throw Error(ErrorKind::kIo, message);
}

/// fsync via a fresh descriptor (the C++ stream API exposes no fd).
void fsync_path(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(), directory ? O_RDONLY | O_DIRECTORY
                                                : O_WRONLY);
  if (fd < 0) fail_io("cannot open for fsync", path);
  if (::fsync(fd) != 0) {
    ::close(fd);
    fail_io("fsync failed", path);
  }
  ::close(fd);
}

std::string parent_directory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Counter& atomic_writes_counter() {
  static Counter& c =
      StatsRegistry::instance().counter("artifact.atomic_writes");
  return c;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t len,
                     std::uint32_t crc) noexcept {
  const auto& table = crc32c_table();
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& writer) {
  // The writer streams straight into the temp file, so a writer that
  // produces its bytes in chunks never holds the whole file in memory.
  const std::string temp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::size_t size = 0;
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) fail_io("cannot open for write", temp);
    try {
      writer(out);
    } catch (...) {
      out.close();
      std::remove(temp.c_str());
      throw;
    }
    out.flush();
    const std::streamoff end = out.tellp();
    if (!out.good() || end < 0) {
      out.close();
      std::remove(temp.c_str());
      fail_io("write failed", temp);
    }
    size = static_cast<std::size_t>(end);
  }
  try {
    // The write probe may throw (fail-write) — before the rename, so the
    // previous artifact survives — or truncate (short-write), which
    // models a torn write that still got renamed into place: the loader
    // must catch it by checksum, and the fault tests assert exactly that.
    const std::size_t keep = fault_write_probe(size);
    if (keep < size &&
        ::truncate(temp.c_str(), static_cast<off_t>(keep)) != 0) {
      fail_io("truncate failed", temp);
    }
    fsync_path(temp, /*directory=*/false);
  } catch (...) {
    std::remove(temp.c_str());
    throw;
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    fail_io("rename failed", path);
  }
  // Make the rename itself durable. Failure here is not fatal to
  // correctness (the file is complete either way) but is still surfaced.
  fsync_path(parent_directory(path), /*directory=*/true);
  atomic_writes_counter().add();
}

void write_artifact_file(const std::string& path, const std::string& kind,
                         const std::string& payload) {
  const std::uint32_t crc = crc32c(payload.data(), payload.size());
  atomic_write_file(path, [&](std::ostream& out) {
    char header[160];
    std::snprintf(header, sizeof(header), "%s v%d %s %zu %08x\n",
                  kEnvelopeMagic, kEnvelopeVersion, kind.c_str(),
                  payload.size(), crc);
    out << header;
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  });
}

std::string read_artifact_file(const std::string& path,
                               const std::string& kind) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail_io("cannot open for read", path);

  std::string header;
  if (!std::getline(in, header)) {
    throw Error(ErrorKind::kCorrupt, "artifact has no header: " + path);
  }
  std::istringstream fields(header);
  std::string magic, version, file_kind, crc_hex;
  std::uint64_t declared_bytes = 0;
  if (!(fields >> magic >> version >> file_kind >> declared_bytes >>
        crc_hex) ||
      magic != kEnvelopeMagic) {
    throw Error(ErrorKind::kCorrupt, "not a gcnt artifact: " + path);
  }
  if (version != "v" + std::to_string(kEnvelopeVersion)) {
    throw Error(ErrorKind::kVersion, "artifact " + path + " is " + version +
                                         ", this build reads v" +
                                         std::to_string(kEnvelopeVersion));
  }
  if (file_kind != kind) {
    throw Error(ErrorKind::kCorrupt, "artifact " + path + " holds a '" +
                                         file_kind + "', expected '" + kind +
                                         "'");
  }
  if (declared_bytes > kMaxPayloadBytes) {
    throw Error(ErrorKind::kCorrupt,
                "artifact " + path + " declares an implausible payload of " +
                    std::to_string(declared_bytes) + " bytes");
  }
  std::uint32_t declared_crc = 0;
  {
    std::istringstream hex(crc_hex);
    hex >> std::hex >> declared_crc;
    if (hex.fail() || crc_hex.empty()) {
      throw Error(ErrorKind::kCorrupt, "artifact has a malformed checksum: " +
                                           path);
    }
  }

  fault_alloc_probe("artifact payload");
  std::string payload(static_cast<std::size_t>(declared_bytes), '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (static_cast<std::uint64_t>(in.gcount()) != declared_bytes) {
    throw Error(ErrorKind::kCorrupt,
                "artifact " + path + " is truncated: expected " +
                    std::to_string(declared_bytes) + " payload bytes, got " +
                    std::to_string(in.gcount()));
  }

  // The read probe flips a payload bit *before* verification, so an
  // injected flip must surface as the checksum mismatch below.
  fault_read_probe(payload.data(), payload.size());

  const std::uint32_t actual_crc = crc32c(payload.data(), payload.size());
  if (actual_crc != declared_crc) {
    char expected[16], got[16];
    std::snprintf(expected, sizeof(expected), "%08x", declared_crc);
    std::snprintf(got, sizeof(got), "%08x", actual_crc);
    throw Error(ErrorKind::kCorrupt, "artifact " + path +
                                         " failed checksum: header says " +
                                         expected + ", payload is " + got);
  }
  return payload;
}

bool is_artifact_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string word;
  return static_cast<bool>(in >> word) && word == kEnvelopeMagic;
}

}  // namespace gcnt
