#include "sim/simulator.h"

#include <vector>

#include "common/error.h"
#include "estimate/sampled.h"
#include "sim/collectors/stall_attribution.h"
#include "sim/machine.h"

namespace lsqca {
namespace {

template <SamKind KIND>
SimResult
runKind(const Program &program, const SimOptions &options,
        const std::vector<SimObserver *> &observers)
{
    if (observers.empty())
        return detail::Machine<KIND, false>(program, options)
            .run(observers);
    return detail::Machine<KIND, true>(program, options).run(observers);
}

/** One machine walks the banks for every lane; a lane that lost a
 *  row-parallel vote to lane 0 runs again alone. */
template <SamKind KIND>
LaneResults
runLanes(const Program &program, const std::vector<SimOptions> &lanes)
{
    detail::Machine<KIND, false, detail::kAnyLanes> machine(
        program, lanes.data(), lanes.size());
    machine.run();
    LaneResults out;
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        if (!machine.diverged(l)) {
            out.results.push_back(machine.result(l));
            continue;
        }
        out.results.push_back(simulate(program, lanes[l]));
        ++out.fallbacks;
    }
    return out;
}

/** The part of @p arch the bank walk reads: MagicSource fields reset. */
ArchConfig
withoutMagicSupply(ArchConfig arch)
{
    const ArchConfig defaults;
    arch.factories = defaults.factories;
    arch.bufferCap = defaults.bufferCap;
    arch.warmBuffer = defaults.warmBuffer;
    arch.instantMagic = defaults.instantMagic;
    arch.lat.msfPeriod = defaults.lat.msfPeriod;
    arch.lat.magicTransfer = defaults.lat.magicTransfer;
    return arch;
}

bool
plainExact(const SimOptions &options)
{
    return options.observers.empty() && !options.recordBreakdown &&
           !options.estimator.sampled();
}

SimResult
dispatch(const Program &program, const SimOptions &options,
         const std::vector<SimObserver *> &observers)
{
    switch (options.arch.sam) {
      case SamKind::Point:
        return runKind<SamKind::Point>(program, options, observers);
      case SamKind::Line:
        return runKind<SamKind::Line>(program, options, observers);
      case SamKind::Conventional:
        return runKind<SamKind::Conventional>(program, options,
                                              observers);
    }
    throw InternalError("unhandled SAM kind");
}

/** Deliver the SimEndEvent: always last, on the finished result. */
void
emitSimEnd(const std::vector<SimObserver *> &observers,
           const SimResult &result)
{
    SimEndEvent end;
    end.result = &result;
    for (SimObserver *observer : observers)
        observer->onSimEnd(end);
}

} // namespace

SimResult
simulate(const Program &program, const SimOptions &options)
{
    for (const SimObserver *observer : options.observers)
        LSQCA_REQUIRE(observer != nullptr,
                      "SimOptions::observers must not contain nullptr");
    if (options.estimator.sampled()) {
        options.estimator.validate();
        LSQCA_REQUIRE(options.observers.empty() && !options.recordBreakdown,
                      "sampled estimation is incompatible with observers "
                      "and recordBreakdown (detailed coverage is partial)");
        return estimate::simulateSampled(program, options);
    }
    if (!options.recordBreakdown) {
        if (options.observers.empty())
            return dispatch(program, options, options.observers);
        SimResult result =
            dispatch(program, options, options.observers);
        emitSimEnd(options.observers, result);
        return result;
    }

    // recordBreakdown is a thin shim over the built-in
    // StallAttribution: attach one internally, then copy its rows into
    // the result, so the breakdown and the observer API can never
    // drift. Constructed only on this branch — the plain path must not
    // pay for zero-initializing the collector's tables. The SimEndEvent
    // fires only after the rows have landed, so every observer's
    // onSimEnd sees the complete result, breakdown included.
    collectors::StallAttribution breakdown_shim;
    std::vector<SimObserver *> observers = options.observers;
    observers.push_back(&breakdown_shim);
    SimResult result = dispatch(program, options, observers);
    result.breakdown = breakdown_shim.rows();
    emitSimEnd(observers, result);
    return result;
}

bool
sharesBankWalk(const SimOptions &a, const SimOptions &b)
{
    // A conventional machine has no banks: its lanes would share
    // nothing and only pay for the lockstep.
    return a.arch.sam != SamKind::Conventional && plainExact(a) &&
           plainExact(b) &&
           a.maxInstructions == b.maxInstructions &&
           withoutMagicSupply(a.arch) == withoutMagicSupply(b.arch);
}

LaneResults
simulateLanes(const Program &program, const std::vector<SimOptions> &lanes)
{
    LaneResults out;
    if (lanes.size() <= 1) {
        for (const SimOptions &lane : lanes)
            out.results.push_back(simulate(program, lane));
        return out;
    }
    for (const SimOptions &lane : lanes)
        LSQCA_REQUIRE(sharesBankWalk(lanes.front(), lane),
                      "simulateLanes: lanes must differ only in magic "
                      "supply");
    // sharesBankWalk() leaves point and line machines.
    if (lanes.front().arch.sam == SamKind::Point)
        return runLanes<SamKind::Point>(program, lanes);
    return runLanes<SamKind::Line>(program, lanes);
}

SimResult
simulateConventional(const Program &program, SimOptions options)
{
    options.arch.sam = SamKind::Conventional;
    return simulate(program, options);
}

} // namespace lsqca
