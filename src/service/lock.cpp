#include "service/lock.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "common/error.h"
#include "common/fs.h"

namespace lsqca::service {

StateLock::~StateLock()
{
    release();
}

StateLock::StateLock(StateLock &&other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_))
{
    other.fd_ = -1;
    other.path_.clear();
}

StateLock &
StateLock::operator=(StateLock &&other) noexcept
{
    if (this != &other) {
        release();
        fd_ = other.fd_;
        path_ = std::move(other.path_);
        other.fd_ = -1;
        other.path_.clear();
    }
    return *this;
}

std::string
StateLock::pathFor(const std::string &dir)
{
    return dir + "/lock";
}

StateLock
StateLock::acquire(const std::string &dir)
{
    fsutil::makeDirs(dir);
    const std::string path = pathFor(dir);
    const int fd =
        ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    LSQCA_REQUIRE(fd >= 0, "cannot open lockfile " + path + ": " +
                               std::strerror(errno));
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
        const bool busy = errno == EWOULDBLOCK;
        const std::string reason = std::strerror(errno);
        // The holder wrote its pid after locking; best effort only —
        // the flock itself is what keeps us out.
        std::string owner;
        char buffer[32] = {};
        const ssize_t n = ::read(fd, buffer, sizeof(buffer) - 1);
        if (n > 0) {
            owner.assign(buffer, static_cast<std::size_t>(n));
            while (!owner.empty() &&
                   (owner.back() == '\n' || owner.back() == ' '))
                owner.pop_back();
        }
        ::close(fd);
        if (busy)
            throw ConfigError(
                dir + " is locked by a live orchestrator" +
                (owner.empty() ? std::string()
                               : " (pid " + owner + ")") +
                "; stop it first, or pick another state dir");
        throw ConfigError("cannot lock " + path + ": " + reason);
    }
    // Ours now. Stale pids from dead holders are harmless: their
    // flock evaporated with the process, which is why we got here.
    const std::string pid = std::to_string(::getpid()) + "\n";
    if (::ftruncate(fd, 0) == 0) {
        ssize_t written = 0;
        while (written < static_cast<ssize_t>(pid.size())) {
            const ssize_t n =
                ::write(fd, pid.data() + written,
                        pid.size() - static_cast<std::size_t>(written));
            if (n <= 0)
                break;
            written += n;
        }
    }
    StateLock lock;
    lock.fd_ = fd;
    lock.path_ = path;
    return lock;
}

void
StateLock::release()
{
    if (fd_ < 0)
        return;
    // flock releases on close; the file itself stays (a later
    // acquire reuses it), so release order can never unlink a path
    // a new holder just locked.
    ::close(fd_);
    fd_ = -1;
    path_.clear();
}

} // namespace lsqca::service
