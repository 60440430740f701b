#include "common/fs.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/error.h"

namespace lsqca::fsutil {

namespace stdfs = std::filesystem;

namespace {

std::atomic<std::uint64_t> gAtomicWrites{0};
std::atomic<std::uint64_t> gAtomicFsyncs{0};
std::atomic<std::uint64_t> gStagingCounter{0};

/**
 * After the rename, fsync the parent directory so the new name itself
 * survives a crash. Best effort: some filesystems refuse directory
 * fsync, and losing the *name* (while keeping both old and new
 * content intact) is strictly less harmful than the torn data the
 * mandatory file fsync prevents.
 */
void
syncParentDir(const stdfs::path &target)
{
    const stdfs::path parent =
        target.has_parent_path() ? target.parent_path() : stdfs::path(".");
    const int fd =
        ::open(parent.string().c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return;
    ::fsync(fd);
    ::close(fd);
}

/** Closes a file descriptor when it goes out of scope. */
class FdCloser
{
  public:
    explicit FdCloser(int fd) : fd_(fd) {}
    ~FdCloser() { ::close(fd_); }
    FdCloser(const FdCloser &) = delete;
    FdCloser &operator=(const FdCloser &) = delete;

  private:
    int fd_;
};

} // namespace

bool
exists(const std::string &path)
{
    std::error_code ec;
    return stdfs::exists(stdfs::path(path), ec);
}

bool
isDirectory(const std::string &path)
{
    std::error_code ec;
    return stdfs::is_directory(stdfs::path(path), ec);
}

void
makeDirs(const std::string &path)
{
    if (path.empty())
        return;
    std::error_code ec;
    stdfs::create_directories(stdfs::path(path), ec);
    LSQCA_REQUIRE(!ec, "cannot create directory " + path + ": " +
                           ec.message());
}

std::optional<std::string>
tryReadFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return std::nullopt;
    const FdCloser closer(fd);
    // Size the buffer one byte past the file's length, so a regular
    // file arrives in one read and the next returns 0 without a
    // regrowth; reading on to end of file keeps a file that grows
    // meanwhile (an appended journal) whole.
    struct stat info {};
    std::size_t capacity = 4096;
    if (::fstat(fd, &info) == 0 && info.st_size > 0)
        capacity = static_cast<std::size_t>(info.st_size) + 1;
    std::string text(capacity, '\0');
    std::size_t used = 0;
    for (;;) {
        if (used == text.size())
            text.resize(2 * text.size());
        const ::ssize_t n =
            ::read(fd, text.data() + used, text.size() - used);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            LSQCA_REQUIRE(false, "error while reading " + path);
        }
        if (n == 0)
            break;
        used += static_cast<std::size_t>(n);
    }
    text.resize(used);
    return text;
}

std::string
readFile(const std::string &path)
{
    std::optional<std::string> text = tryReadFile(path);
    LSQCA_REQUIRE(text.has_value(), "cannot read " + path);
    return std::move(*text);
}

namespace {

/** write(2) all of @p content to @p fd; false on an error. */
bool
writeAll(int fd, const std::string &content)
{
    std::size_t written = 0;
    while (written < content.size()) {
        const ::ssize_t n =
            ::write(fd, content.data() + written, content.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Stage @p content in a uniquely named temp sibling of @p path, created
 * with @p mode (less the umask), and rename it over @p path; with
 * @p durable, fsync the bytes before the rename and the directory
 * after it.
 */
void
publishFile(const std::string &path, const std::string &content,
            bool durable, ::mode_t mode)
{
    const stdfs::path target(path);
    if (target.has_parent_path()) {
        std::error_code ec;
        stdfs::create_directories(target.parent_path(), ec);
    }
    // Temp sibling in the same directory so rename() stays atomic
    // (same filesystem). pid alone is not unique enough — two threads
    // (or two campaigns in one process) staging the same path would
    // clobber each other — so every call gets its own counter suffix.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(gStagingCounter.fetch_add(1,
                                                 std::memory_order_relaxed));
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, mode);
    LSQCA_REQUIRE(fd >= 0, "cannot write " + tmp);
    if (!writeAll(fd, content)) {
        ::close(fd);
        removeFile(tmp);
        LSQCA_REQUIRE(false, "error while writing " + tmp);
    }
    // Durability half of "atomic": the bytes must be on stable storage
    // BEFORE rename() publishes the name, or a crash shortly after the
    // rename can leave an *empty* file at the final path — exactly the
    // torn queue.json/cache entry writeFileAtomic exists to prevent.
    if (durable) {
        if (::fsync(fd) != 0) {
            ::close(fd);
            removeFile(tmp);
            LSQCA_REQUIRE(false, "cannot fsync " + tmp);
        }
        gAtomicFsyncs.fetch_add(1, std::memory_order_relaxed);
    }
    if (::close(fd) != 0) {
        removeFile(tmp);
        LSQCA_REQUIRE(false, "error while writing " + tmp);
    }
    std::error_code ec;
    stdfs::rename(stdfs::path(tmp), target, ec);
    if (ec) {
        removeFile(tmp);
        LSQCA_REQUIRE(false, "cannot rename " + tmp + " -> " + path +
                                 ": " + ec.message());
    }
    if (durable) {
        syncParentDir(target);
        gAtomicWrites.fetch_add(1, std::memory_order_relaxed);
    }
}

} // namespace

void
writeFileAtomic(const std::string &path, const std::string &content)
{
    publishFile(path, content, true, 0644);
}

void
replaceFile(const std::string &path, const std::string &content)
{
    // A rename would replace a symlink or a device node itself, so
    // such a path is written through in place.
    struct stat info {};
    if (::lstat(path.c_str(), &info) != 0 || S_ISREG(info.st_mode)) {
        publishFile(path, content, false, 0666);
        return;
    }
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    LSQCA_REQUIRE(fd >= 0, "cannot write " + path);
    const bool wrote = writeAll(fd, content);
    const bool closed = ::close(fd) == 0;
    LSQCA_REQUIRE(wrote && closed, "error while writing " + path);
}

AtomicWriteStats
atomicWriteStats()
{
    AtomicWriteStats stats;
    stats.writes = gAtomicWrites.load(std::memory_order_relaxed);
    stats.fsyncs = gAtomicFsyncs.load(std::memory_order_relaxed);
    return stats;
}

void
copyFileAtomic(const std::string &src, const std::string &dst)
{
    writeFileAtomic(dst, readFile(src));
}

void
removeFile(const std::string &path)
{
    std::error_code ec;
    stdfs::remove(stdfs::path(path), ec);
}

std::vector<std::string>
listFiles(const std::string &dir, const std::string &prefix,
          const std::string &suffix)
{
    LSQCA_REQUIRE(isDirectory(dir), dir + " is not a directory");
    struct Entry
    {
        std::string name;
        std::string path;
    };
    std::vector<Entry> entries;
    std::error_code ec;
    for (const auto &item : stdfs::directory_iterator(dir, ec)) {
        // Non-throwing overload: an entry vanishing mid-iteration
        // (e.g. a sibling writer's staging file being renamed away) is
        // a skip, not a filesystem_error.
        std::error_code entryEc;
        if (!item.is_regular_file(entryEc) || entryEc)
            continue;
        const std::string name = item.path().filename().string();
        if (name.size() < prefix.size() + suffix.size())
            continue;
        if (name.compare(0, prefix.size(), prefix) != 0)
            continue;
        if (suffix.size() > 0 &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        entries.push_back({name, item.path().string()});
    }
    LSQCA_REQUIRE(!ec, "cannot list " + dir + ": " + ec.message());
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.name < b.name;
              });
    std::vector<std::string> paths;
    paths.reserve(entries.size());
    for (Entry &entry : entries)
        paths.push_back(std::move(entry.path));
    return paths;
}

} // namespace lsqca::fsutil
