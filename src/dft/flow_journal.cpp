#include "dft/flow_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/artifact.h"
#include "common/error.h"
#include "common/fault_inject.h"
#include "common/stats.h"

namespace gcnt {

namespace {

constexpr const char* kMagic = "gcnt-flow-journal";
constexpr int kVersion = 1;
/// Entry counts above this are rejected as corrupt before allocating.
constexpr std::size_t kMaxEntriesPerRecord = std::size_t{1} << 24;

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

/// Appends " <crc32c-hex>\n" to `body` and returns the full line.
std::string seal_line(const std::string& body) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), " %08x\n",
                crc32c(body.data(), body.size()));
  return body + suffix;
}

/// Splits a sealed line into body + declared crc; false when malformed.
bool unseal_line(const std::string& line, std::string& body,
                 std::uint32_t& declared_crc) {
  const std::size_t space = line.find_last_of(' ');
  if (space == std::string::npos || line.size() - space - 1 != 8) {
    return false;
  }
  body = line.substr(0, space);
  std::istringstream hex(line.substr(space + 1));
  hex >> std::hex >> declared_crc;
  return !hex.fail();
}

/// Parses all of `field` as a decimal T: no sign on an unsigned T, no
/// leading space, no trailing characters, no overflow.
template <class T>
bool parse_field(std::string_view field, T& value) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  return ec == std::errc() && ptr == end && !field.empty();
}

/// Parses the body of a checksum-valid record line
/// "I <iteration> <count> <target>:<flag> ...". Anything else is
/// Error{kCorrupt}: the checksum only proves the bytes are the ones
/// written, not that a writer of this format wrote them.
FlowJournalRecord parse_record(const std::string& body,
                               const std::string& path, std::size_t line) {
  const auto corrupt = [&](const std::string& what) {
    return Error(ErrorKind::kCorrupt, "journal " + path + ": " + what +
                                          " on line " + std::to_string(line));
  };
  std::vector<std::string_view> fields;
  for (std::size_t begin = 0; begin <= body.size();) {
    std::size_t end = body.find(' ', begin);
    if (end == std::string::npos) end = body.size();
    fields.emplace_back(body.data() + begin, end - begin);
    begin = end + 1;
  }
  FlowJournalRecord record;
  std::size_t count = 0;
  if (fields.size() < 3 || fields[0] != "I" ||
      !parse_field(fields[1], record.iteration) ||
      !parse_field(fields[2], count) || count > kMaxEntriesPerRecord) {
    throw corrupt("malformed record");
  }
  if (fields.size() - 3 != count) throw corrupt("wrong entry count");
  record.entries.reserve(count);
  for (std::size_t i = 3; i < fields.size(); ++i) {
    const std::string_view entry = fields[i];
    const std::size_t colon = entry.find(':');
    NodeId target = 0;
    int flag = 0;
    if (colon == std::string_view::npos ||
        !parse_field(entry.substr(0, colon), target) ||
        !parse_field(entry.substr(colon + 1), flag)) {
      throw corrupt("bad entry '" + std::string(entry) + "'");
    }
    record.entries.emplace_back(target, flag);
  }
  return record;
}

bool line_valid(const std::string& line) {
  std::string body;
  std::uint32_t declared = 0;
  return unseal_line(line, body, declared) &&
         crc32c(body.data(), body.size()) == declared;
}

}  // namespace

FlowJournal::~FlowJournal() { close(); }

void FlowJournal::open(const std::string& path, const std::string& flow,
                       const std::string& design, std::size_t node_count,
                       bool resume) {
  close();
  records_.clear();
  path_ = path;

  std::ostringstream header_body;
  header_body << kMagic << " v" << kVersion << " " << flow << " " << design
              << " " << node_count;
  const std::string header_line = seal_line(header_body.str());

  std::size_t valid_bytes = 0;
  bool have_valid_header = false;
  if (resume) {
    std::ifstream in(path, std::ios::binary);
    std::string line;
    std::size_t line_index = 0;
    bool torn = false;
    while (in && std::getline(in, line)) {
      // getline strips '\n'; a line at EOF without one is a torn tail.
      const bool has_newline = !in.eof();
      if (!has_newline || !line_valid(line)) {
        // A crash mid-append leaves exactly one newline-less fragment as
        // the file's final bytes. An invalid line that is complete, or
        // that has anything after it, is real corruption.
        std::string rest;
        std::getline(in, rest, '\0');
        if (has_newline || !rest.empty()) {
          throw Error(ErrorKind::kCorrupt,
                      "journal " + path + ": corrupt record on line " +
                          std::to_string(line_index + 1));
        }
        torn = true;
        break;
      }
      if (line_index == 0) {
        if (line + "\n" != header_line) {
          // Valid checksum but different identity: refuse to replay a
          // journal from another design / flow / starting netlist.
          throw Error(ErrorKind::kUsage,
                      "journal " + path + " does not match this sweep (" +
                          flow + " over " + design + " with " +
                          std::to_string(node_count) + " nodes)");
        }
        have_valid_header = true;
      } else {
        std::string body;
        std::uint32_t crc = 0;
        unseal_line(line, body, crc);
        records_.push_back(parse_record(body, path, line_index + 1));
      }
      valid_bytes += line.size() + 1;
      ++line_index;
    }
    if (torn) {
      static Counter& torn_counter =
          StatsRegistry::instance().counter("journal.torn_tails");
      torn_counter.add();
    }
  }

  if (have_valid_header) {
    // Re-open for append, discarding any torn tail.
    if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
      fail_io("cannot truncate journal", path);
    }
    fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0) fail_io("cannot open journal", path);
    return;
  }

  // Fresh journal (no file, an empty file, or resume not requested).
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) fail_io("cannot create journal", path);
  records_.clear();
  const std::size_t keep = fault_write_probe(header_line.size());
  const ssize_t written = ::write(fd_, header_line.data(), keep);
  if (written < 0 || static_cast<std::size_t>(written) != keep ||
      ::fsync(fd_) != 0) {
    fail_io("cannot write journal header", path);
  }
}

void FlowJournal::append(const FlowJournalRecord& record) {
  if (fd_ < 0) {
    throw Error(ErrorKind::kInternal, "FlowJournal::append: not open");
  }
  std::ostringstream body;
  body << "I " << record.iteration << " " << record.entries.size();
  for (const auto& [target, flag] : record.entries) {
    body << " " << target << ":" << flag;
  }
  const std::string line = seal_line(body.str());
  // The write probe models a crash mid-append: a truncated record is
  // exactly what open(resume=true) must detect and discard.
  const std::size_t keep = fault_write_probe(line.size());
  const ssize_t written = ::write(fd_, line.data(), keep);
  if (written < 0 || static_cast<std::size_t>(written) != keep) {
    fail_io("journal append failed", path_);
  }
  if (::fsync(fd_) != 0) fail_io("journal fsync failed", path_);
  static Counter& records_counter =
      StatsRegistry::instance().counter("journal.records");
  records_counter.add();
}

void FlowJournal::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void FlowJournal::remove() noexcept {
  close();
  if (!path_.empty()) std::remove(path_.c_str());
}

}  // namespace gcnt
