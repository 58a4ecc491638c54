// Ingest-session record & replay: the determinism backbone of ccsigd.
//
// A live daemon merges records from several concurrently-polled sources,
// so the merged arrival order depends on scheduling — unreproducible by
// rerunning the sources. The session file pins it down: every record that
// is actually PUSHED into the engine (post-shed — dropped records are not
// part of the session, exactly like they were never captured) is appended
// in push order, interleaved with the force-evict commands the shed ladder
// injected and the shard each targeted. Replaying the file re-pushes the
// identical sequence, and because the engine's emission order is a pure
// function of that sequence, the replayed verdict log is
// byte-identical to the live one at any `--jobs`.
//
// Format: 16-byte header (magic "CCSIGSES", u32 version, u32 entry size)
// followed by fixed-size trivially-copyable entries. A torn tail (the
// recorder was SIGKILLed mid-entry) is ignored by the reader — the intact
// prefix IS the session.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>

#include "analysis/wire_record.h"
#include "stream/ingest.h"

namespace ccsig::service {

struct SessionEntry {
  std::uint8_t kind = 0;   // stream::RoutedKind
  std::uint8_t pad = 0;
  std::uint16_t shard = 0;  // kEvictOldest: the shard the command targeted
  std::uint32_t pad2 = 0;
  analysis::WireRecord w{};  // kRecord only
};
static_assert(std::is_trivially_copyable_v<SessionEntry>);

class SessionWriter {
 public:
  /// Creates/truncates `path` and writes the header. Throws
  /// std::runtime_error on failure.
  explicit SessionWriter(const std::string& path);

  void record(const analysis::WireRecord& w);
  void evict(std::uint16_t shard);
  void flush();

  std::uint64_t entries() const { return entries_; }

 private:
  void put(const SessionEntry& e);

  std::ofstream out_;
  std::string path_;
  std::uint64_t entries_ = 0;
};

class SessionReader {
 public:
  /// Opens and validates the header. Throws std::runtime_error when the
  /// file is missing or not a session file.
  explicit SessionReader(const std::string& path);

  /// Next entry, or nullopt at the end — including at a torn tail, which
  /// is silently treated as the end of the session.
  std::optional<SessionEntry> next();

 private:
  std::ifstream in_;
};

}  // namespace ccsig::service
