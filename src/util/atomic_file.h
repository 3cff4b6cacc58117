// Artifact file I/O, POSIX only. Writes publish with write-to-temp + fsync
// + rename, so readers only ever observe the old complete file or the new
// complete file, never a truncated mix. Reads slurp the whole file under
// a size bound, so a huge or hostile file is refused before it is read.
// Model files, checkpoints, ensemble manifests, dataset shards and their
// manifest all go through this pair; the metrics/trace/bench JSON writers
// use the write half.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/errors.h"

namespace paragraph::util {

// Atomically replaces `path` with `contents`. Throws IoError on failure,
// leaving the previous file (if any) intact.
void write_file_atomic(const std::string& path, std::string_view contents);

// Same, but reports failure as a bool for callers with a non-throwing
// contract (obs writers).
bool try_write_file_atomic(const std::string& path, std::string_view contents);

// Reads the whole file at `path`; `what` prefixes error messages. Throws
// IoError (unreadable) or CorruptArtifactError (larger than `max_bytes`).
std::string read_artifact_file(const std::string& path, const char* what,
                               std::uint64_t max_bytes = std::uint64_t{1} << 30);

}  // namespace paragraph::util
