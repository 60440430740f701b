#ifndef LSQCA_ANALYSIS_ESTIMATOR_H
#define LSQCA_ANALYSIS_ESTIMATOR_H

/**
 * @file
 * Closed-form resource estimation for LSQCA machines, a test oracle for
 * the cycle-accurate simulator. Estimates are proven bounds (tested
 * against the simulator): execution time is at least the
 * magic-production time and at least the dataflow critical path; memory
 * density comes from exact cell accounting.
 */

#include <cstdint>

#include "arch/config.h"
#include "arch/floorplan.h"
#include "isa/program.h"

namespace lsqca {

/** Closed-form resource estimates for one program on one machine. */
struct ResourceEstimate
{
    std::int64_t dataQubits = 0;
    std::int64_t instructions = 0;
    std::int64_t countedInstructions = 0;
    std::int64_t magicStates = 0;

    /** Beats to produce all magic states (factories * period model). */
    std::int64_t magicProductionBeats = 0;

    /** Dataflow critical path with Table-I fixed latencies (memory
     *  motion excluded — a true lower bound for every SAM). */
    std::int64_t dataflowBeats = 0;

    /** max(magicProductionBeats, dataflowBeats): execution time lower
     *  bound for any floorplan with this MSF configuration. */
    std::int64_t lowerBoundBeats = 0;

    /** Exact floorplan cell accounting (MSFs excluded). */
    FloorplanStats floorplan;

    /** Lower bound on CPI. */
    double cpiLowerBound = 0.0;
};

/**
 * Estimate @p program on @p config. The hybrid fraction contributes its
 * conventional-region cells; magic production assumes a warm buffer.
 */
ResourceEstimate estimateResources(const Program &program,
                                   const ArchConfig &config);

} // namespace lsqca

#endif // LSQCA_ANALYSIS_ESTIMATOR_H
