#include "common/durable_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/failpoint.h"

namespace privmark {

Status ErrnoError(const std::string& what, const std::string& path) {
  return Status::IOError(what + " '" + path + "': " + std::strerror(errno));
}

bool WriteFully(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

Result<std::string> ReadFileCapped(const std::string& path,
                                   uint64_t max_bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoError("cannot open for reading", path);
  struct stat info;
  Status status = Status::OK();
  std::string text;
  off_t size = -1;
  if (::fstat(fd, &info) == 0 && S_ISDIR(info.st_mode)) {
    // A directory's seek size is not its byte count; reading it fails.
    errno = EISDIR;
    status = ErrnoError("cannot read", path);
  } else if ((size = ::lseek(fd, 0, SEEK_END)) < 0 ||
             ::lseek(fd, 0, SEEK_SET) != 0) {
    status = ErrnoError("cannot determine size of", path);
  } else if (static_cast<uint64_t>(size) > max_bytes) {
    status = Status::IOError("'" + path + "' is " + std::to_string(size) +
                             " bytes; the read is capped at " +
                             std::to_string(max_bytes) + " bytes");
  } else {
    text.resize(static_cast<size_t>(size));
    size_t done = 0;
    while (done < text.size() && status.ok()) {
      const ssize_t n = ::read(fd, text.data() + done, text.size() - done);
      if (n > 0) {
        done += static_cast<size_t>(n);
      } else if (n == 0) {
        status = Status::IOError("short read from '" + path + "'");
      } else if (errno != EINTR) {
        status = ErrnoError("cannot read", path);
      }
    }
  }
  ::close(fd);
  if (!status.ok()) return status;
  return text;
}

namespace {

// Fsyncs the directory that holds `path`, making a create or rename of
// that name durable.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? "."
                              : slash == 0 ? "/" : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return ErrnoError("cannot open parent directory", dir);
  const Status status = ::fsync(dir_fd) == 0
                            ? Status::OK()
                            : ErrnoError("cannot fsync parent directory", dir);
  ::close(dir_fd);
  return status;
}

}  // namespace

Status SyncFileAndDir(int fd, const std::string& path) {
  if (::fsync(fd) != 0) return ErrnoError("cannot fsync", path);
  return SyncParentDir(path);
}

Status WriteFileDurable(const std::string& path,
                        const std::string& contents) {
  // The bytes go to a sibling temp file that is made durable and then
  // renamed over `path`, so a fault at any step leaves `path` as it was
  // (its previous contents, or absent), never truncated.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoError("cannot open for writing", tmp);
  // A replaced file keeps its permission bits (a key file may be 0600).
  struct stat previous;
  const bool keep_mode = ::stat(path.c_str(), &previous) == 0;
  // Each failpoint stands where its fault strikes: "file.write" before any
  // byte lands, "file.fsync" after all of them are written but before
  // they are durable.
  auto injected = [&path](const char* point) {
    return Status::IOError(std::string("failpoint '") + point +
                           "' triggered for '" + path + "'");
  };
  Status status;
  if (keep_mode && ::fchmod(fd, previous.st_mode & 07777) != 0) {
    status = ErrnoError("cannot set permissions of", tmp);
  } else if (PRIVMARK_FAILPOINT("file.write")) {
    status = injected("file.write");
  } else if (!WriteFully(fd, contents.data(), contents.size())) {
    status = ErrnoError("short write to", tmp);
  } else if (PRIVMARK_FAILPOINT("file.fsync")) {
    status = injected("file.fsync");
  } else if (::fsync(fd) != 0) {
    status = ErrnoError("cannot fsync", tmp);
  }
  if (::close(fd) != 0 && status.ok()) status = ErrnoError("cannot close", tmp);
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = ErrnoError("cannot rename '" + tmp + "' over", path);
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  return SyncParentDir(path);
}

}  // namespace privmark
