#include "service/cache.h"

#include "common/error.h"
#include "common/fs.h"
#include "common/hash.h"

namespace lsqca::service {

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string
ResultCache::pathFor(const std::string &fingerprint) const
{
    LSQCA_REQUIRE(enabled(), "result cache is disabled");
    // The fingerprint becomes a file name; insist on the 16-hex shape
    // so a corrupted queue entry can never escape the cache dir.
    LSQCA_REQUIRE(isFingerprint(fingerprint),
                  "bad cache fingerprint \"" + fingerprint + "\"");
    return dir_ + "/" + fingerprint + ".json";
}

bool
ResultCache::contains(const std::string &fingerprint) const
{
    return enabled() && fsutil::exists(pathFor(fingerprint));
}

bool
ResultCache::fetch(const std::string &fingerprint,
                   const std::string &destPath) const
{
    if (!contains(fingerprint))
        return false;
    fsutil::copyFileAtomic(pathFor(fingerprint), destPath);
    return true;
}

void
ResultCache::store(const std::string &fingerprint,
                   const std::string &srcPath) const
{
    if (!enabled())
        return;
    fsutil::copyFileAtomic(srcPath, pathFor(fingerprint));
}

std::size_t
ResultCache::size() const
{
    if (!enabled() || !fsutil::isDirectory(dir_))
        return 0;
    return fsutil::listFiles(dir_, "", ".json").size();
}

std::string
ResultCache::jobPathFor(const std::string &fingerprint) const
{
    LSQCA_REQUIRE(enabled(), "result cache is disabled");
    LSQCA_REQUIRE(isFingerprint(fingerprint),
                  "bad cache fingerprint \"" + fingerprint + "\"");
    return dir_ + "/jobs/" + fingerprint + ".json";
}

bool
ResultCache::containsJob(const std::string &fingerprint) const
{
    return enabled() && fsutil::exists(jobPathFor(fingerprint));
}

Json
ResultCache::fetchJob(const std::string &fingerprint) const
{
    if (!enabled())
        return Json();
    // Outside the try: a malformed fingerprint is the caller's error,
    // not a miss.
    const std::string path = jobPathFor(fingerprint);
    // One read and one parse that builds only the entry and the two
    // fields checked below; the provenance is checked against the full
    // grammar but not built, so a file Json::parse rejects is still a
    // miss. Validation doubles as corruption tolerance: with fsync'd
    // atomic publishes a torn file should be impossible, but a shared
    // cache directory can hold foreign bytes — treat anything that is
    // not a well-formed lsqca-jobcache-v1 wrapper as a miss rather
    // than failing the campaign.
    try {
        const std::optional<std::string> text = fsutil::tryReadFile(path);
        if (!text)
            return Json(); // absent: the common miss, without a throw
        Json doc =
            Json::parseMembers(*text, {"schema", "fingerprint", "entry"});
        if (!doc.isObject() || !doc.contains("schema") ||
            !doc.contains("fingerprint") || !doc.contains("entry"))
            return Json();
        if (doc.at("schema").asString() != "lsqca-jobcache-v1" ||
            doc.at("fingerprint").asString() != fingerprint)
            return Json();
        return doc.take("entry");
    } catch (...) {
        return Json();
    }
}

void
ResultCache::storeJob(const std::string &fingerprint, const Json &entry,
                      const Json &provenance) const
{
    if (!enabled())
        return;
    Json doc = Json::object();
    doc.set("schema", "lsqca-jobcache-v1");
    doc.set("fingerprint", fingerprint);
    doc.set("provenance", provenance);
    doc.set("entry", entry);
    fsutil::writeFileAtomic(jobPathFor(fingerprint), doc.dump(2) + "\n");
}

std::size_t
ResultCache::jobCount() const
{
    if (!enabled() || !fsutil::isDirectory(dir_ + "/jobs"))
        return 0;
    return fsutil::listFiles(dir_ + "/jobs", "", ".json").size();
}

} // namespace lsqca::service
