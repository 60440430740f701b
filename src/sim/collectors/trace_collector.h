#ifndef LSQCA_SIM_COLLECTORS_TRACE_COLLECTOR_H
#define LSQCA_SIM_COLLECTORS_TRACE_COLLECTOR_H

/**
 * @file
 * TraceCollector: the Fig. 8 trace vectors as an observer — one
 * TraceSample per memory operand at instruction start, PM retire
 * times, and per-instruction memory-motion samples. TraceAnalysis
 * (analysis/trace_analysis.h) reads them.
 */

#include <cstdint>
#include <vector>

#include "sim/observer.h"

namespace lsqca::collectors {

/** One memory reference: instruction start time x variable. */
struct TraceSample
{
    std::int64_t time = 0;
    std::int32_t variable = -1;
};

class TraceCollector : public SimObserver
{
  public:
    void
    onInstruction(const InstructionEvent &event) override
    {
        const OpcodeInfo &info = opcodeInfo(event.inst.op);
        if (info.numMem >= 1)
            trace_.push_back({event.start, event.inst.m0});
        if (info.numMem >= 2)
            trace_.push_back({event.start, event.inst.m1});
        if (event.inst.op == Opcode::PM)
            magicTimes_.push_back(event.end);
        const std::int64_t motion = event.split.motionBeats();
        if (motion > 0)
            motionSamples_.push_back(motion);
    }

    /** Memory references in program order. */
    const std::vector<TraceSample> &trace() const { return trace_; }

    /** PM retire times: the magic-state demand timeline. */
    const std::vector<std::int64_t> &magicTimes() const
    {
        return magicTimes_;
    }

    /**
     * Memory-motion beats (seek / pick / align / load / store), one
     * sample per instruction that moved anything: the empirical shape
     * of the "variable latency" the LSQCA ISA exposes.
     */
    const std::vector<std::int64_t> &motionSamples() const
    {
        return motionSamples_;
    }

  private:
    std::vector<TraceSample> trace_;
    std::vector<std::int64_t> magicTimes_;
    std::vector<std::int64_t> motionSamples_;
};

} // namespace lsqca::collectors

#endif // LSQCA_SIM_COLLECTORS_TRACE_COLLECTOR_H
