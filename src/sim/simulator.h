#ifndef LSQCA_SIM_SIMULATOR_H
#define LSQCA_SIM_SIMULATOR_H

/**
 * @file
 * Code-beat-accurate LSQCA simulator (Sec. VI-A).
 *
 * Execution model: instructions issue in program order with dataflow
 * timing — each starts at the latest of its operand ready times and
 * resource availabilities, so independent instructions overlap freely
 * (the paper's "executed in parallel if their instruction targets do not
 * overlap") while CR register slots, per-bank scan cells, the bounded
 * magic-state buffer, and SK control dependencies serialize exactly
 * where the architecture says they must.
 *
 * Variable-latency instructions (LD/ST/in-memory forms/CX/CZ) are costed
 * by the bank models from live grid state, so locality-aware stores and
 * the access locality of programs shape the latencies organically.
 *
 * Telemetry is pluggable (sim/observer.h, docs/OBSERVERS.md): the hot
 * loop emits typed events to the observers listed in SimOptions, and
 * compiles to the event-free fast path when none are attached.
 *
 * SAM jobs that differ only in magic-state supply run as lanes of one
 * bank walk (simulateLanes()): bank costs depend on the instruction
 * stream alone, so one machine costs each instruction against its
 * banks once and runs only the timing once per lane. Results are
 * exactly those of simulate() per lane.
 */

#include <vector>

#include "arch/config.h"
#include "estimate/options.h"
#include "isa/program.h"
#include "sim/observer.h"
#include "sim/result.h"

namespace lsqca {

/** Per-run simulation options. */
struct SimOptions
{
    ArchConfig arch;

    /** Simulate only the first N instructions (0 = whole program). */
    std::int64_t maxInstructions = 0;

    /**
     * Record memory-reference and magic-demand traces (Fig. 8) into
     * SimResult::trace / magicTimes / motionSamples. A thin shim over
     * collectors::TraceCollector: simulate() attaches one internally
     * and moves its vectors into the result.
     */
    bool recordTrace = false;

    /**
     * Collect the per-opcode latency breakdown (SimResult::breakdown)
     * via an internal collectors::StallAttribution. Sweeps with this
     * set emit `lsqca-bench-v2` BENCH documents.
     */
    bool recordBreakdown = false;

    /**
     * Telemetry sinks for this run (borrowed; must outlive the
     * simulate() call). Runtime-only: never serialized, ignored by
     * api::toJson(SimOptions). Events arrive in deterministic program
     * order regardless of sweep worker count.
     */
    std::vector<SimObserver *> observers;

    /**
     * Estimation strategy (docs/SAMPLING.md). Exact by default;
     * sampled mode runs the SMARTS-style systematic-sampling
     * estimator (src/estimate/) and is incompatible with observers,
     * recordTrace, and recordBreakdown. Serialized as the
     * `"estimator"` block (omitted entirely when exact).
     */
    estimate::EstimatorOptions estimator;
};

/**
 * Run @p program on the configured machine and return timing, CPI,
 * density, and breakdowns. Deterministic: identical inputs give
 * identical results (and identical observer event streams).
 */
SimResult simulate(const Program &program, const SimOptions &options);

/**
 * Whether @p a and @p b can run as lanes of one bank walk: both are
 * plain exact runs (no observers, recordTrace, recordBreakdown or
 * sampled estimator) on a point- or line-SAM machine, equal in every
 * other field except the MagicSource ones: arch.factories, bufferCap,
 * warmBuffer, instantMagic, lat.msfPeriod and lat.magicTransfer. A
 * conventional machine has no banks to share, so it never shares.
 */
bool sharesBankWalk(const SimOptions &a, const SimOptions &b);

/** Outcome of simulateLanes(). */
struct LaneResults
{
    /** One result per lane, in lane order. */
    std::vector<SimResult> results;
    /** Lanes whose row-parallel window vote disagreed with the first
     *  lane's; each was re-simulated alone after the shared walk. */
    std::int32_t fallbacks = 0;
};

/**
 * simulate() for every entry of @p lanes over one shared bank walk;
 * each result equals simulate(program, lanes[k]) bit for bit. The
 * first lane's row-parallel window decisions drive the banks
 * (sim/machine.h, "Lanes"). One lane is simulate() itself.
 *
 * @throws ConfigError unless every lane sharesBankWalk() with the
 *         first, or there is only one lane.
 */
LaneResults simulateLanes(const Program &program,
                          const std::vector<SimOptions> &lanes);

/**
 * Options for the conventional 1/2-density baseline of Sec. VI-A
 * (unit-time access, no path conflicts, unlimited ILP).
 */
struct ConventionalOptions
{
    /** MSF count. */
    std::int32_t factories = 1;

    /** Simulate only the first N instructions (0 = whole program). */
    std::int64_t maxInstructions = 0;

    /** As SimOptions::recordTrace. */
    bool recordTrace = false;

    /** As SimOptions::recordBreakdown. */
    bool recordBreakdown = false;

    /** As SimOptions::observers. */
    std::vector<SimObserver *> observers;
};

/** Convenience wrapper: simulate() on the conventional baseline. */
SimResult simulateConventional(const Program &program,
                               const ConventionalOptions &options = {});

} // namespace lsqca

#endif // LSQCA_SIM_SIMULATOR_H
