#include "estimate/sampled.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "estimate/stats.h"
#include "sim/machine.h"

namespace lsqca::estimate {
namespace {

/**
 * The estimator's accounting, independent of the machine kind.
 *
 * Coverage layout for unit size U, warm-up W, period P over `limit`
 * instructions (units are [kU, (k+1)U), the first unit of every
 * period is measured):
 *
 *     |==measure==|--ff--|~warm~|==measure==|--ff--| ... |  tail  |
 *      unit 0                    unit P                    skipped
 *
 * Fast-forwarded spans advance functional state only (skip-list of
 * ffRelevant instructions); each is followed by resetTimingEpoch()
 * so the warm-up rebuilds timing state from a clean baseline. The
 * tail after the last measured unit is not executed at all — nothing
 * downstream observes it.
 *
 * Estimates use the ratio estimator: cpi = sum(beats) / sum(counted)
 * over measured units, extrapolated to the whole stream by the
 * counted-instruction ratio. When the measured units cover the whole
 * stream contiguously (period=1, or limit <= U), every sum telescopes
 * to its exact-run value and the result is bit-identical to exact —
 * `estimated` stays false.
 */
template <SamKind KIND>
SimResult
runSampled(const Program &prog, const SimOptions &opts)
{
    detail::Machine<KIND, false> machine(prog, opts);
    const EstimatorOptions &est = opts.estimator;

    SimResult result;
    result.floorplan = machine.floorplan();
    std::int64_t limit = prog.size();
    if (opts.maxInstructions > 0)
        limit = std::min(limit, opts.maxInstructions);
    const Instruction *code = prog.instructions().data();

    const std::int64_t unit = est.unitInstrs;
    const std::int64_t warm = est.warmupInstrs;

    // All per-stream accounting comes from the program's memoized
    // StreamIndex, shared by every job over the same program: the
    // counted-instruction prefix (CPI denominators without re-walking
    // skipped spans), the PM prefix (magic consumption is functional,
    // not sampled), and the memory-op skip-list the fast-forward path
    // walks — everything else is a functional no-op, so per-job
    // sampled cost scales with memory traffic, not stream length.
    const auto index = prog.streamIndex();
    const auto &countedPrefix = index->countedPrefix;
    const auto &ffOps = index->memOps;
    const std::int64_t totalPm =
        index->pmPrefix[static_cast<std::size_t>(limit)];
    const std::int64_t totalCounted =
        countedPrefix[static_cast<std::size_t>(limit)];

    std::vector<double> unitCpi;
    std::int64_t beatsSum = 0;
    std::int64_t countedSum = 0;
    std::int64_t memSum = 0;
    std::int64_t measuredInstrs = 0;
    std::int64_t detailed = 0;
    std::int64_t epochMaxEnd = 0;
    std::int64_t pos = 0;
    std::size_t ffCursor = 0;

    const std::int64_t numUnits =
        limit == 0 ? 0 : (limit + unit - 1) / unit;
    // Short streams shrink the period (down to exact coverage) so the
    // variance estimate always has a real sample behind it; see
    // EstimatorOptions::effectivePeriod().
    const std::int64_t period = est.effectivePeriod(numUnits);
    for (std::int64_t u = 0; u < numUnits; u += period) {
        const std::int64_t begin = u * unit;
        const std::int64_t end = std::min(begin + unit, limit);
        const std::int64_t warmStart =
            std::max(pos, begin - warm);

        if (warmStart > pos) {
            // Functional fast-forward over [pos, warmStart).
            while (ffCursor < ffOps.size() &&
                   ffOps[ffCursor] < pos)
                ++ffCursor;
            while (ffCursor < ffOps.size() &&
                   ffOps[ffCursor] < warmStart) {
                machine.fastForwardOne(code[ffOps[ffCursor]]);
                ++ffCursor;
            }
            pos = warmStart;
            machine.resetTimingEpoch();
            epochMaxEnd = 0;
        }

        // Detailed warm-up [warmStart, begin): executed, not measured.
        for (; pos < begin; ++pos) {
            const auto step = machine.executeOne(code[pos]);
            epochMaxEnd = std::max(epochMaxEnd, step.end);
            ++detailed;
        }

        // The measured unit [begin, end).
        const std::int64_t unitStartBeats = epochMaxEnd;
        for (; pos < end; ++pos) {
            const auto step = machine.executeOne(code[pos]);
            memSum += step.memoryBeats;
            epochMaxEnd = std::max(epochMaxEnd, step.end);
            ++detailed;
        }
        const std::int64_t beats = epochMaxEnd - unitStartBeats;
        const std::int64_t counted =
            countedPrefix[static_cast<std::size_t>(end)] -
            countedPrefix[static_cast<std::size_t>(begin)];
        beatsSum += beats;
        countedSum += counted;
        measuredInstrs += end - begin;
        ++result.sampledUnits;
        if (counted > 0)
            unitCpi.push_back(static_cast<double>(beats) /
                              static_cast<double>(counted));
    }
    // The tail after the last measured unit is skipped outright (it
    // is accounted as fast-forwarded below).

    result.instructionsSimulated = limit;
    result.countedInstructions = totalCounted;
    result.detailedInstructions = detailed;
    result.ffInstructions = limit - detailed;
    result.estimated = measuredInstrs != limit;

    // Ratio estimates. When measured coverage is total, ratio == 1.0
    // exactly and every llround() below returns the exact integer —
    // this is what makes period=1 bit-identical to exact mode.
    const double ratio =
        countedSum > 0 ? static_cast<double>(totalCounted) /
                             static_cast<double>(countedSum)
                       : 0.0;
    result.cpi = countedSum == 0
                     ? 0.0
                     : static_cast<double>(beatsSum) /
                           static_cast<double>(countedSum);
    result.execBeats =
        std::llround(static_cast<double>(beatsSum) * ratio);
    result.memoryBeats =
        std::llround(static_cast<double>(memSum) * ratio);
    result.magicStallBeats = std::llround(
        static_cast<double>(machine.magicStallTotal()) * ratio);
    // Magic consumption is a property of the stream, not the sample:
    // every PM consumes exactly one state (instant sources report 0,
    // matching MagicSource::consumed()).
    result.magicConsumed = opts.arch.instantMagic ? 0 : totalPm;

    if (!result.estimated) {
        result.cpiCi95 = 0.0;
        result.samplingError = 0.0;
    } else if (unitCpi.size() < 2) {
        // Not enough units for a variance estimate: report maximal
        // relative error so a target_ci policy escalates to exact.
        result.cpiCi95 = result.cpi;
        result.samplingError = 1.0;
    } else {
        const SampleStats stats = sampleStats(unitCpi);
        result.cpiCi95 = stats.ci95;
        result.samplingError =
            result.cpi > 0.0 ? stats.ci95 / result.cpi : 0.0;
    }
    return result;
}

} // namespace

SimResult
simulateSampled(const Program &program, const SimOptions &options)
{
    options.estimator.validate();
    LSQCA_REQUIRE(options.estimator.sampled(),
                  "simulateSampled requires estimator mode sampled");
    switch (options.arch.sam) {
      case SamKind::Point:
        return runSampled<SamKind::Point>(program, options);
      case SamKind::Line:
        return runSampled<SamKind::Line>(program, options);
      case SamKind::Conventional:
        return runSampled<SamKind::Conventional>(program, options);
    }
    throw InternalError("unhandled SAM kind");
}

} // namespace lsqca::estimate
