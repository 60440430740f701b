#include "reference.h"

#include "common/error.h"

namespace perfbench {

using lsqca::Json;

Reference
Reference::load(const std::string &path)
{
    const Json doc = Json::load(path);
    Reference reference;
    for (const auto &[key, row] : doc.at("jobs").members()) {
        LSQCA_REQUIRE(row.isArray() && row.size() == 6,
                      path + ": bad reference row for " + key);
        Fields fields{};
        for (std::size_t i = 0; i < fields.size(); ++i)
            fields[i] = row.items()[i].asDouble();
        reference.jobs_.emplace(key, fields);
    }
    return reference;
}

bool
Reference::matches(const std::string &key,
                   const lsqca::SimResult &result) const
{
    const auto found = jobs_.find(key);
    if (found == jobs_.end())
        return false;
    const Fields &want = found->second;
    return want[0] == result.cpi &&
           want[1] == static_cast<double>(result.execBeats) &&
           want[2] == static_cast<double>(result.memoryBeats) &&
           want[3] == static_cast<double>(result.magicStallBeats) &&
           want[4] == result.density() &&
           want[5] == static_cast<double>(result.instructionsSimulated);
}

bool
Reference::matchesEntry(const std::string &key, const Json &entry) const
{
    const auto found = jobs_.find(key);
    const Json *metrics = entry.find("metrics");
    if (found == jobs_.end() || metrics == nullptr)
        return false;
    const Fields &want = found->second;
    const char *const names[] = {"cpi", "exec_beats", "memory_beats",
                                 "magic_stall_beats", "density"};
    for (std::size_t i = 0; i < std::size(names); ++i) {
        const Json *value = metrics->find(names[i]);
        if (value == nullptr || !value->isNumber() ||
            value->asDouble() != want[i])
            return false;
    }
    return true;
}

Json
referenceRow(const lsqca::SimResult &result)
{
    Json row = Json::array();
    row.push(result.cpi);
    row.push(result.execBeats);
    row.push(result.memoryBeats);
    row.push(result.magicStallBeats);
    row.push(result.density());
    row.push(result.instructionsSimulated);
    return row;
}

void
Check::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (problems.size() < 10)
        problems.push_back(what);
}

void
Check::tally(std::int64_t count, std::int64_t bad, const std::string &what)
{
    attempted += count;
    if (bad == 0)
        return;
    failed += bad;
    if (problems.size() < 10)
        problems.push_back(what);
}

} // namespace perfbench
