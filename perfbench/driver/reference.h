#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

/**
 * @file
 * Committed per-job references and the output check every pass runs.
 *
 * A reference maps `<sweep>|<job name>` to the job's simulated fields:
 * cpi, exec_beats, memory_beats, magic_stall_beats, density and the
 * instructions simulated. They are the simulator's own earlier output,
 * not hardware or paper measurements: the check pins the model's
 * results, it does not validate the model.
 */

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "sim/result.h"

namespace perfbench {

class Reference
{
  public:
    static Reference load(const std::string &path);

    /** True when every simulated field of @p result matches. */
    bool matches(const std::string &key, const lsqca::SimResult &result) const;

    /**
     * True when every field a BENCH entry carries matches (BENCH
     * entries do not record the instruction count).
     */
    bool matchesEntry(const std::string &key, const lsqca::Json &entry) const;

  private:
    /** cpi, exec, memory, magic stall, density, instructions. */
    using Fields = std::array<double, 6>;
    std::unordered_map<std::string, Fields> jobs_;
};

/** One reference row, in Reference's field order. */
lsqca::Json referenceRow(const lsqca::SimResult &result);

inline std::string
jobKey(const std::string &sweep, const std::string &job)
{
    return sweep + "|" + job;
}

/** Tallies checked operations and the first few problems found. */
struct Check
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> problems;

    /** Count one operation; record @p what when it failed. */
    void expect(bool ok, const std::string &what);

    /** Count @p count operations of which @p bad failed. */
    void tally(std::int64_t count, std::int64_t bad, const std::string &what);
};

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
