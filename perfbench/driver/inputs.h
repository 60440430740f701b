#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

/**
 * @file
 * Seeded workload inputs. The seed permutes the value order of every
 * non-benchmark axis of each paper spec and picks the hybrid fraction
 * of the one machine point the incremental legs add. Job names do not
 * depend on axis order, so the committed references (matched by job
 * name) hold for every seed. The program only ever sees the generated
 * spec files.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "api/spec.h"

namespace perfbench {

/** Hybrid fractions the seed picks the added machine point from. */
inline constexpr double kExtraFractions[] = {
    0.025, 0.125, 0.225, 0.325, 0.425, 0.525, 0.625, 0.725, 0.825, 0.925};

/** The spec files one workload runs (absolute paths). */
struct WorkloadInputs
{
    std::string workload;
    /** Specs of the cold and resubmit legs, run in order. */
    std::vector<std::string> specs;
    /** specs.back() plus one machine-axis point. */
    std::string incrementalSpec;
    /** Jobs the added machine point contributes. */
    std::int64_t incrementalJobs = 0;
    /** Name fragment of the added machine point. */
    std::string extraMachine;
};

/** Every workload's spec files plus the estimator probe specs. */
struct Inputs
{
    std::uint64_t seed = 0;
    double extraFraction = 0.0;
    std::vector<WorkloadInputs> workloads;
    /** Fig. 14 (prefixed) and Fig. 14 --full for the estimator probe. */
    std::string estimatePrefix;
    std::string estimateFull;

    const WorkloadInputs &workload(const std::string &name) const;
};

bool isWorkload(const std::string &name);

/**
 * Write every input file for (@p seed, @p variant) under @p dir and
 * return the set. A run draws one variant per pass, so its figures
 * average over several job orders instead of resting on one.
 */
Inputs generateInputs(std::uint64_t seed, std::uint32_t variant,
                      const std::string &dir);

/** Re-read the set generateInputs wrote to @p dir (inputs.json). */
Inputs loadInputs(const std::string &dir);

/** Name fragment of the added machine point ("line#4/x0.125"). */
std::string extraMachineName(double fraction);

/** @p spec with a hybrid line#4 point at @p fraction appended to its
 *  machine axis. */
lsqca::api::SweepSpec withExtraMachine(lsqca::api::SweepSpec spec,
                                       double fraction);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
