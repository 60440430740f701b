#ifndef LSQCA_ANALYSIS_TRACE_ANALYSIS_H
#define LSQCA_ANALYSIS_TRACE_ANALYSIS_H

/**
 * @file
 * Memory-reference pattern analysis (Sec. III-B / Fig. 8): per-variable
 * reference timestamps, reference-period distributions, per-register
 * breakdowns, and the magic-state demand rate.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "isa/program.h"
#include "sim/collectors/trace_collector.h"

namespace lsqca {

/** Reference-period statistics for one variable group. */
struct GroupPeriods
{
    std::string name;           ///< register name or "all"
    std::int64_t references = 0;
    EmpiricalCdf periods;       ///< gaps between successive references
};

/** Full analysis of one simulation trace. */
class TraceAnalysis
{
  public:
    /**
     * Analyze the trace @p trace collected while simulating @p program
     * (which supplies register names).
     */
    TraceAnalysis(const Program &program,
                  const collectors::TraceCollector &trace);

    /** Sorted reference timestamps of one variable. */
    const std::vector<std::int64_t> &timestamps(std::int32_t var) const;

    /** Period CDFs: index 0 is "all", then one per program register. */
    const std::vector<GroupPeriods> &groups() const { return groups_; }

    /** Mean beats between magic-state consumptions (0 if < 2 PMs). */
    double magicDemandInterval() const { return magicInterval_; }

    /** Total references recorded. */
    std::int64_t totalReferences() const { return totalRefs_; }

    /**
     * Mean reference period across all variables (temporal-locality
     * headline scalar).
     */
    double meanPeriod() const;

    /**
     * Fraction of successive references (over the whole trace) whose
     * variable distance is at most @p radius — the spatial-locality
     * scalar backing the "sequential access" observation.
     */
    double sequentialFraction(std::int32_t radius = 2) const;

  private:
    std::vector<std::vector<std::int64_t>> perVar_;
    std::vector<GroupPeriods> groups_;
    std::vector<std::pair<std::int64_t, std::int32_t>> ordered_;
    double magicInterval_ = 0.0;
    std::int64_t totalRefs_ = 0;
};

} // namespace lsqca

#endif // LSQCA_ANALYSIS_TRACE_ANALYSIS_H
