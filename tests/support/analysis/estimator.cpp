#include "analysis/estimator.h"

#include <algorithm>
#include <vector>

namespace lsqca {
namespace {

/** Fixed Table-I latency of @p inst (0 for variable-latency motion). */
std::int64_t
fixedLatency(const Instruction &inst, const Latencies &lat)
{
    switch (inst.op) {
      case Opcode::HD_C:
      case Opcode::HD_M:
        return lat.hadamard;
      case Opcode::PH_C:
      case Opcode::PH_M:
        return lat.phase;
      case Opcode::MXX_C:
      case Opcode::MZZ_C:
      case Opcode::MXX_M:
      case Opcode::MZZ_M:
        return lat.surgery;
      case Opcode::CX:
      case Opcode::CZ:
        return 2 * lat.surgery;
      case Opcode::SK:
        return lat.skWait;
      default:
        return 0;
    }
}

} // namespace

ResourceEstimate
estimateResources(const Program &program, const ArchConfig &config)
{
    config.validate();
    ResourceEstimate est;
    est.dataQubits = program.numVariables();
    est.instructions = program.size();
    est.countedInstructions = program.countedInstructions();
    est.magicStates = program.magicCount();

    // Warm buffer: the first effectiveBufferCap() states are free; the
    // rest are produced at period/factories.
    const std::int64_t produced = std::max<std::int64_t>(
        0, est.magicStates - config.effectiveBufferCap());
    est.magicProductionBeats =
        config.instantMagic
            ? 0
            : (produced * config.lat.msfPeriod + config.factories - 1) /
                  config.factories;

    // Dataflow critical path over variables, slots, and values with
    // fixed latencies only (memory motion >= 0 for every SAM).
    std::vector<std::int64_t> var_ready(
        static_cast<std::size_t>(program.numVariables()), 0);
    std::vector<std::int64_t> val_ready(
        static_cast<std::size_t>(program.numValues()), 0);
    std::int32_t max_slot = 1;
    for (const auto &inst : program.instructions())
        max_slot = std::max<std::int32_t>({max_slot, inst.c0, inst.c1});
    std::vector<std::int64_t> slot_ready(
        static_cast<std::size_t>(max_slot) + 1, 0);
    std::int64_t total = 0;
    for (const auto &inst : program.instructions()) {
        const OpcodeInfo &info = opcodeInfo(inst.op);
        std::int64_t start = 0;
        if (info.numMem >= 1)
            start = std::max(start,
                             var_ready[static_cast<std::size_t>(
                                 inst.m0)]);
        if (info.numMem >= 2)
            start = std::max(start,
                             var_ready[static_cast<std::size_t>(
                                 inst.m1)]);
        if (info.numReg >= 1)
            start = std::max(start,
                             slot_ready[static_cast<std::size_t>(
                                 inst.c0)]);
        if (info.numReg >= 2)
            start = std::max(start,
                             slot_ready[static_cast<std::size_t>(
                                 inst.c1)]);
        if (inst.op == Opcode::SK)
            start = std::max(start,
                             val_ready[static_cast<std::size_t>(
                                 inst.v0)]);
        const std::int64_t end = start + fixedLatency(inst, config.lat);
        if (info.numMem >= 1)
            var_ready[static_cast<std::size_t>(inst.m0)] = end;
        if (info.numMem >= 2)
            var_ready[static_cast<std::size_t>(inst.m1)] = end;
        if (info.numReg >= 1)
            slot_ready[static_cast<std::size_t>(inst.c0)] = end;
        if (info.numReg >= 2)
            slot_ready[static_cast<std::size_t>(inst.c1)] = end;
        if (info.numVal >= 1 && inst.op != Opcode::SK)
            val_ready[static_cast<std::size_t>(inst.v0)] = end;
        total = std::max(total, end);
    }
    est.dataflowBeats = total;
    est.lowerBoundBeats =
        std::max(est.magicProductionBeats, est.dataflowBeats);

    est.floorplan =
        floorplanStats(config, est.dataQubits,
                       conventionalCount(config, est.dataQubits));

    est.cpiLowerBound =
        est.countedInstructions == 0
            ? 0.0
            : static_cast<double>(est.lowerBoundBeats) /
                  static_cast<double>(est.countedInstructions);
    return est;
}

} // namespace lsqca
