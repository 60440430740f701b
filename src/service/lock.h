#ifndef LSQCA_SERVICE_LOCK_H
#define LSQCA_SERVICE_LOCK_H

/**
 * @file
 * Campaign state-dir ownership: an advisory `flock(2)` on
 * `<state>/lock` held for as long as an orchestrator is driving the
 * directory. A second driver opening the same campaign fails fast
 * with the owner's pid instead of racing on `queue.json`; because
 * flock locks die with their process, a lock left behind by a killed
 * orchestrator is reclaimed automatically — the pid in the file is
 * informative, never authoritative.
 */

#include <string>

namespace lsqca::service {

/**
 * A held state-dir lock. Move-only; the destructor releases it. The
 * descriptor is close-on-exec, so worker children never inherit (and
 * never prolong) their orchestrator's claim.
 */
class StateLock
{
  public:
    StateLock() = default;
    ~StateLock();

    StateLock(StateLock &&other) noexcept;
    StateLock &operator=(StateLock &&other) noexcept;
    StateLock(const StateLock &) = delete;
    StateLock &operator=(const StateLock &) = delete;

    /**
     * Take `<dir>/lock` (creating @p dir as needed) with
     * LOCK_EX|LOCK_NB and record our pid in it. @throws ConfigError
     * when another live process holds it, naming that pid.
     */
    static StateLock acquire(const std::string &dir);

    bool held() const { return fd_ >= 0; }

    /** Release early (destructor-equivalent). */
    void release();

    /** `<dir>/lock`. */
    static std::string pathFor(const std::string &dir);

  private:
    int fd_ = -1;
    std::string path_;
};

} // namespace lsqca::service

#endif // LSQCA_SERVICE_LOCK_H
