#ifndef LSQCA_SIM_RESULT_H
#define LSQCA_SIM_RESULT_H

/**
 * @file
 * Simulation outputs: execution time, CPI, density and, on request,
 * the per-opcode latency breakdown. Event-level telemetry (the Fig. 8
 * memory-reference trace among it) comes from the collectors in
 * sim/collectors/ (docs/OBSERVERS.md).
 */

#include <cstdint>
#include <vector>

#include "arch/floorplan.h"
#include "sim/observer.h"

namespace lsqca {

/** Outcome of one code-beat-accurate simulation. */
struct SimResult
{
    /** Total execution time in code beats. */
    std::int64_t execBeats = 0;

    /** Instructions actually simulated (≤ program size if truncated). */
    std::int64_t instructionsSimulated = 0;

    /**
     * CPI denominator: simulated instructions excluding LD/ST traffic
     * (DESIGN.md §4.11), so CPI ratios equal execution-time ratios.
     */
    std::int64_t countedInstructions = 0;

    /** Code beats per (counted) instruction. */
    double cpi = 0.0;

    /** Magic states consumed / beats stalled waiting for them. */
    std::int64_t magicConsumed = 0;
    std::int64_t magicStallBeats = 0;

    /** Aggregate beats spent in memory motion (seek/pick/align/ld/st). */
    std::int64_t memoryBeats = 0;

    /** Cell accounting and density for the simulated configuration. */
    FloorplanStats floorplan;

    /**
     * Per-opcode latency breakdown (only with
     * SimOptions::recordBreakdown): one entry per opcode that appears
     * in the simulated prefix, in opcode order, with its instruction
     * count, occupied beats (duration sums, not critical path), and
     * those beats split into compute vs. each memory-motion component
     * vs. magic stall. Serialized by api::toJson /
     * api::breakdownFromJson and carried by `lsqca-bench-v2` BENCH
     * entries.
     */
    std::vector<OpcodeSplit> breakdown;

    // ---- sampled-estimator statistics (docs/SAMPLING.md) ------------

    /**
     * True iff this result is a sampling estimate rather than an
     * exact measurement. A sampled run that ends up covering every
     * instruction in measured units (period=1, or a program shorter
     * than one period) produces the exact result and leaves this
     * false — its BENCH entry stays byte-identical to exact mode.
     */
    bool estimated = false;

    /** Measured sampling units (0 for exact runs). */
    std::int64_t sampledUnits = 0;

    /** Instructions simulated in detail (warm-up + measured). */
    std::int64_t detailedInstructions = 0;

    /** Instructions fast-forwarded functionally (or tail-skipped). */
    std::int64_t ffInstructions = 0;

    /**
     * 95% confidence half-width on cpi from the per-unit sample
     * variance (Student-t below 31 units). 1x cpi when fewer than 2
     * usable units were measured (degenerate; triggers escalation).
     */
    double cpiCi95 = 0.0;

    /** Relative CI: cpiCi95 / cpi (0 when cpi is 0). */
    double samplingError = 0.0;

    double
    density() const
    {
        return floorplan.density();
    }
};

} // namespace lsqca

#endif // LSQCA_SIM_RESULT_H
