#ifndef LSQCA_SERVICE_CACHE_H
#define LSQCA_SERVICE_CACHE_H

/**
 * @file
 * Content-addressed result cache, at two granularities.
 *
 * Shard level (the fast path): every finished shard's BENCH document
 * is stored under `<dir>/<fingerprint>.json`, where the fingerprint is
 * the canonical hash of the shard's content manifest — the job slice's
 * fully canonicalized parameters and options, the shard geometry, and
 * the BENCH schema version (api::shardFingerprint). Two invocations
 * with equal fingerprints are guaranteed to produce byte-identical
 * documents under --no-timing, so fetches are byte-exact copies:
 * re-submitting an overlapping spec skips every shard the cache
 * already holds, and the merged artifact is still bit-for-bit what a
 * direct run would have written.
 *
 * Job level (the incremental layer underneath): each simulated job's
 * BENCH *entry* is stored under `<dir>/jobs/<fingerprint>.json`, keyed
 * by api::jobFingerprint — no sweep name, no shard geometry — wrapped
 * in a `lsqca-jobcache-v1` document that also carries the job's
 * provenance manifest. A spec edit that shifts the shard partition
 * (e.g. one added grid point) invalidates every shard fingerprint but
 * almost no job fingerprints, so a resubmit recomputes exactly the new
 * jobs and splices the rest.
 *
 * The cache is shared-safe between concurrent campaigns: stores go
 * through atomic fsync+rename publishes, and any later writer of the
 * same key writes the same bytes by construction.
 */

#include <cstddef>
#include <string>

#include "api/job_cache.h"
#include "common/json.h"

namespace lsqca::service {

/** File-per-fingerprint BENCH document cache. */
class ResultCache
{
  public:
    /** An empty @p dir disables the cache (every lookup misses). */
    explicit ResultCache(std::string dir);

    bool enabled() const { return !dir_.empty(); }

    const std::string &dir() const { return dir_; }

    /** Where @p fingerprint lives/would live. @throws when disabled. */
    std::string pathFor(const std::string &fingerprint) const;

    bool contains(const std::string &fingerprint) const;

    /**
     * Byte-exact copy of the cached document to @p destPath.
     * @return false on a miss (or when disabled).
     */
    bool fetch(const std::string &fingerprint,
               const std::string &destPath) const;

    /**
     * Publish @p srcPath under @p fingerprint (atomic; a concurrent
     * writer of the same key writes identical bytes). No-op when
     * disabled.
     */
    void store(const std::string &fingerprint,
               const std::string &srcPath) const;

    /** Cached documents currently on disk (0 when disabled). */
    std::size_t size() const;

    /** Where job @p fingerprint lives/would live. @throws disabled. */
    std::string jobPathFor(const std::string &fingerprint) const;

    bool containsJob(const std::string &fingerprint) const;

    /**
     * The cached BENCH entry for @p fingerprint, or a null Json on a
     * miss. A file that is unreadable, that Json::parse would reject,
     * or that fails `lsqca-jobcache-v1` validation (foreign bytes in a
     * shared directory) is treated as a miss — the cache must never
     * block progress, and the next store heals the entry. Reads the
     * file once and builds only the entry; the provenance is checked,
     * not built (Json::parseMembers).
     */
    Json fetchJob(const std::string &fingerprint) const;

    /**
     * Publish @p entry (plus its @p provenance manifest) under job
     * @p fingerprint, wrapped as `lsqca-jobcache-v1`. Atomic and
     * durable; no-op when disabled.
     */
    void storeJob(const std::string &fingerprint, const Json &entry,
                  const Json &provenance) const;

    /** Cached job entries currently on disk (0 when disabled). */
    std::size_t jobCount() const;

  private:
    std::string dir_;
};

/**
 * api::JobCacheClient over a ResultCache, so runSpec (which may not
 * depend on the service layer) can consume the job cache through the
 * seam declared in src/api/job_cache.h.
 */
class JobCacheAdapter final : public api::JobCacheClient
{
  public:
    explicit JobCacheAdapter(const ResultCache &cache) : cache_(cache) {}

    Json fetchEntry(const std::string &fingerprint) override
    {
        return cache_.fetchJob(fingerprint);
    }

    void storeEntry(const std::string &fingerprint, const Json &entry,
                    const Json &provenance) override
    {
        cache_.storeJob(fingerprint, entry, provenance);
    }

  private:
    const ResultCache &cache_;
};

} // namespace lsqca::service

#endif // LSQCA_SERVICE_CACHE_H
