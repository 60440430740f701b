#ifndef LSQCA_COMMON_FS_H
#define LSQCA_COMMON_FS_H

/**
 * @file
 * Filesystem helpers for the service layer: atomic writes (tmp +
 * rename, so a crashed orchestrator never leaves a half-written
 * queue.json or cache entry behind), byte-exact copies, and
 * deterministic (sorted) directory listings for `lsqca merge <dir>`.
 * All errors surface as ConfigError with the offending path.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace lsqca::fsutil {

bool exists(const std::string &path);

bool isDirectory(const std::string &path);

/** mkdir -p. @throws ConfigError on failure. */
void makeDirs(const std::string &path);

/**
 * Whole-file read through open(2)/read(2): every file read goes
 * through here. @return std::nullopt when @p path cannot be opened
 * (absent, no permission), without throwing.
 * @throws ConfigError when it opens but cannot be read (a directory).
 */
std::optional<std::string> tryReadFile(const std::string &path);

/** Whole-file read. @throws ConfigError when unreadable. */
std::string readFile(const std::string &path);

/**
 * Write @p content to @p path atomically AND durably: parent dirs are
 * created, bytes land in a sibling temp file, the file descriptor is
 * fsync()ed, and only then does rename() publish the name (followed by
 * a best-effort fsync of the parent directory). Concurrent readers see
 * either the old or the new document — never a torn one — and a crash
 * at any point cannot materialize an empty or truncated file at the
 * final path. The temp name carries a per-call unique suffix, so
 * concurrent writers of the same path (threads or campaigns sharing a
 * cache directory) never clobber each other's staging file.
 * @throws ConfigError.
 */
void writeFileAtomic(const std::string &path, const std::string &content);

/**
 * writeFileAtomic() without the fsyncs: the bytes land in the same
 * uniquely named temp sibling and rename() replaces @p path, so a
 * reader or a killed writer never sees a torn or truncated file, but
 * the new version may not survive a crash of the machine. Json::write()
 * writes every document through here. The file is created with mode
 * 0666 less the umask, as std::ofstream creates one, and a new inode
 * replaces the old, so a hard link to the old version keeps its bytes.
 * A @p path that is a symlink or not a regular file (/dev/null) is
 * written through in place instead, since a rename would replace the
 * link or the device node itself. @throws ConfigError.
 */
void replaceFile(const std::string &path, const std::string &content);

/**
 * Process-wide counters for the atomic write path, for tests that
 * assert durability behaviour (each successful writeFileAtomic must
 * issue at least one data fsync before its rename).
 */
struct AtomicWriteStats
{
    std::uint64_t writes = 0; ///< successful writeFileAtomic calls
    std::uint64_t fsyncs = 0; ///< data fsyncs issued before rename
};

AtomicWriteStats atomicWriteStats();

/** Byte-exact atomic copy (readFile + writeFileAtomic). */
void copyFileAtomic(const std::string &src, const std::string &dst);

/** Best-effort unlink; absent files are not an error. */
void removeFile(const std::string &path);

/**
 * Regular files in @p dir whose names start with @p prefix and end
 * with @p suffix, as full paths sorted by file name (deterministic
 * merge order). @throws ConfigError when @p dir is not a directory.
 */
std::vector<std::string> listFiles(const std::string &dir,
                                   const std::string &prefix = "",
                                   const std::string &suffix = "");

} // namespace lsqca::fsutil

#endif // LSQCA_COMMON_FS_H
