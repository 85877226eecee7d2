// How privmark reads and writes its own files: one capped reader and one
// crash-durable writer.
//
// Reads (ReadFileCapped) learn the file's size by seeking to its end and
// refuse a file above the caller's cap before allocating anything, so a
// huge, sparse or mistaken input fails with IOError instead of ballooning
// memory. Manifests, key files, CSV tables and journals all read through it.
//
// Writes share one fsync discipline for every artifact that must survive
// a crash (journals, manifests, key files, protected CSV tables):
//
//   - the file's *contents* become durable with fsync(fd);
//   - the file's *name* becomes durable only when its parent directory
//     is fsynced too — a freshly created file can vanish wholesale after
//     a crash even though its contents were synced.

#ifndef PRIVMARK_COMMON_DURABLE_FILE_H_
#define PRIVMARK_COMMON_DURABLE_FILE_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace privmark {

/// \brief IOError carrying strerror(errno) — the shared error shape of
/// the raw-fd write paths.
Status ErrnoError(const std::string& what, const std::string& path);

/// \brief write(2) until done, retrying EINTR; false on error (errno
/// holds the cause).
bool WriteFully(int fd, const char* data, size_t size);

/// \brief Fsyncs `fd` (open on `path`), then `path`'s parent directory:
/// after OK both the bytes written so far and the name survive a crash.
/// Leaves `fd` open.
Status SyncFileAndDir(int fd, const std::string& path);

/// \brief ReadFileCapped's cap for files with no size bound (journals).
inline constexpr uint64_t kUncappedRead = UINT64_MAX;

/// \brief Reads the whole of `path`. A file larger than `max_bytes` is
/// refused with IOError ("... is N bytes; the read is capped at M bytes")
/// before any buffer is allocated; so is a directory, a file whose size
/// cannot be found by seeking (a pipe, say), or one that shrinks while
/// being read.
Result<std::string> ReadFileCapped(const std::string& path,
                                   uint64_t max_bytes);

/// \brief Replaces `path` with `contents`: writes and fsyncs the sibling
/// temp file `<path>.tmp.<pid>`, renames it over `path`, then fsyncs the
/// parent directory. A replaced file keeps its permission bits; a
/// symlink at `path` is replaced, not written through. After OK, both
/// the bytes and the name survive a crash; after an error `path` keeps
/// its previous contents (or stays absent) and the temp file is removed. Failpoints: "file.write" fails
/// before any byte is written, "file.fsync" after every byte is written
/// but before the fsync.
Status WriteFileDurable(const std::string& path, const std::string& contents);

}  // namespace privmark

#endif  // PRIVMARK_COMMON_DURABLE_FILE_H_
