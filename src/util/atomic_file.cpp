#include "util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/faultinject.h"

namespace paragraph::util {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw IoError(what + " '" + path + "': " + std::strerror(errno ? errno : EIO));
}

// Flush the directory entry so the rename itself survives a crash.
void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return;  // best-effort: not all filesystems allow it
  ::fsync(dfd);
  ::close(dfd);
}

}  // namespace

void write_file_atomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  errno = 0;
  int fd = fault::should_fail("atomic.open")
               ? -1
               : ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("AtomicFile: cannot create", tmp);
  std::size_t off = 0;
  bool write_fault = fault::should_fail("atomic.write");
  while (off < contents.size()) {
    const ssize_t n =
        write_fault ? -1 : ::write(fd, contents.data() + off, contents.size() - off);
    if (n < 0) {
      if (!write_fault && errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      fail("AtomicFile: write failed for", tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (fault::should_fail("atomic.fsync") || ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    fail("AtomicFile: fsync failed for", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail("AtomicFile: close failed for", tmp);
  }
  if (fault::should_fail("atomic.rename") || std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail("AtomicFile: rename failed for", path);
  }
  fsync_parent_dir(path);
}

bool try_write_file_atomic(const std::string& path, std::string_view contents) {
  try {
    write_file_atomic(path, contents);
    return true;
  } catch (const IoError&) {
    return false;
  }
}

std::string read_artifact_file(const std::string& path, const char* what,
                               std::uint64_t max_bytes) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw IoError(std::string(what) + ": cannot open '" + path + "'");
  const auto end = is.tellg();
  if (end < 0) throw IoError(std::string(what) + ": cannot stat '" + path + "'");
  const auto size = static_cast<std::uint64_t>(end);
  if (size > max_bytes)
    throw CorruptArtifactError(std::string(what) + ": '" + path + "' is implausibly large (" +
                               std::to_string(size) + " bytes)");
  is.seekg(0);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!is) throw IoError(std::string(what) + ": short read from '" + path + "'");
  return bytes;
}

}  // namespace paragraph::util
