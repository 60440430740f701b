/**
 * @file
 * SimObserver event-stream tests: the telemetry layer's contracts.
 *
 *  - Shim fidelity: recordBreakdown == an explicit StallAttribution,
 *    on seed programs across point/line/hybrid/conventional machines
 *    (simulator_test.cpp pins the TraceCollector's Fig. 8 vectors).
 *  - Conservation: per-opcode counts sum to the simulated (and the
 *    non-LD/ST to the counted) instructions, motion splits sum to
 *    memoryBeats, magic stalls sum to magicStallBeats, heatmap touches
 *    equal occupy events.
 *  - Determinism: JSONL event streams are bit-identical across sweep
 *    worker counts and across reruns, and a golden stream pins the
 *    exact bytes for a small Sec. V program.
 */

#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "circuit/lowering.h"
#include "common/error.h"
#include "sim/collectors/bank_heatmap.h"
#include "sim/collectors/jsonl_writer.h"
#include "sim/collectors/stall_attribution.h"
#include "sim/collectors/timeline.h"
#include "sweep/sweep.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

using collectors::BankHeatmap;
using collectors::JsonlWriter;
using collectors::StallAttribution;
using collectors::Timeline;

const Program &
adderProgram()
{
    static const Program program =
        translate(lowerToCliffordT(makeAdder(8)));
    return program;
}

/** The machines every contract is checked on. */
std::vector<SimOptions>
machines()
{
    std::vector<SimOptions> options(4);
    options[0].arch.sam = SamKind::Point;
    options[1].arch.sam = SamKind::Line;
    options[1].arch.banks = 2;
    options[2].arch.sam = SamKind::Line;
    options[2].arch.hybridFraction = 0.25;
    options[3].arch.sam = SamKind::Conventional;
    return options;
}

TEST(Observer, BreakdownShimEqualsExplicitCollector)
{
    const Program &p = adderProgram();
    for (SimOptions opts : machines()) {
        opts.recordBreakdown = true;
        const SimResult via_shim = simulate(p, opts);
        ASSERT_FALSE(via_shim.breakdown.empty());

        opts.recordBreakdown = false;
        StallAttribution collector;
        opts.observers = {&collector};
        simulate(p, opts);
        EXPECT_EQ(via_shim.breakdown, collector.rows());
    }
}

TEST(Observer, StallAttributionConservesResultTotals)
{
    const Program &p = adderProgram();
    for (SimOptions opts : machines()) {
        StallAttribution stalls;
        opts.observers = {&stalls};
        // A cold buffer makes magic stalls nonzero on every machine.
        opts.arch.warmBuffer = false;
        const SimResult r = simulate(p, opts);

        std::int64_t instructions = 0;
        std::int64_t counted = 0;
        std::int64_t motion = 0;
        std::int64_t magic_stall = 0;
        for (const OpcodeSplit &row : stalls.rows()) {
            EXPECT_GT(row.count, 0); // executed opcodes only
            instructions += row.count;
            if (row.op != Opcode::LD && row.op != Opcode::ST)
                counted += row.count;
            motion += row.split.motionBeats();
            magic_stall += row.split.magicStall;
        }
        EXPECT_EQ(instructions, r.instructionsSimulated);
        EXPECT_EQ(counted, r.countedInstructions);
        EXPECT_EQ(motion, r.memoryBeats);
        EXPECT_EQ(magic_stall, r.magicStallBeats);
        EXPECT_GT(r.magicStallBeats, 0);
        EXPECT_EQ(stalls.totals().motionBeats(), r.memoryBeats);
    }
}

TEST(Observer, NullObserverLeavesResultsIdentical)
{
    const Program &p = adderProgram();
    for (SimOptions opts : machines()) {
        const SimResult plain = simulate(p, opts);
        SimObserver null_observer;
        opts.observers = {&null_observer};
        const SimResult observed = simulate(p, opts);
        EXPECT_EQ(plain.execBeats, observed.execBeats);
        EXPECT_EQ(plain.cpi, observed.cpi);
        EXPECT_EQ(plain.memoryBeats, observed.memoryBeats);
        EXPECT_EQ(plain.magicStallBeats, observed.magicStallBeats);
        EXPECT_EQ(plain.magicConsumed, observed.magicConsumed);
        EXPECT_EQ(plain.countedInstructions,
                  observed.countedInstructions);
    }
}

TEST(Observer, RejectsNullObserverPointer)
{
    SimOptions opts;
    opts.observers = {nullptr};
    EXPECT_THROW(simulate(adderProgram(), opts), ConfigError);
}

/** Counts raw events for cross-checks against the collectors. */
class CountingObserver : public SimObserver
{
  public:
    std::int64_t instructions = 0;
    std::int64_t magics = 0;
    std::int64_t occupies = 0;
    std::int64_t vacates = 0;
    std::int64_t nextIndex = 0;
    bool ordered = true;
    bool cellsFollowInstruction = true;
    std::int64_t lastInstructionIndex = -1;

    void
    onInstruction(const InstructionEvent &event) override
    {
        ordered = ordered && event.index == nextIndex;
        ++nextIndex;
        ++instructions;
        lastInstructionIndex = event.index;
    }

    void
    onMagic(const MagicEvent &event) override
    {
        ++magics;
        EXPECT_LE(event.request, event.available);
        EXPECT_LE(event.available, event.end);
        EXPECT_EQ(event.index, lastInstructionIndex);
    }

    void
    onBankCell(const BankCellEvent &event) override
    {
        if (event.kind == CellEventKind::Occupy)
            ++occupies;
        else
            ++vacates;
        // Initial placement (-1) precedes instruction 0; afterwards a
        // cell event always follows its own instruction event.
        cellsFollowInstruction =
            cellsFollowInstruction &&
            (event.index == -1 || event.index == lastInstructionIndex);
    }
};

TEST(Observer, EventStreamOrderingContract)
{
    const Program &p = adderProgram();
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    CountingObserver counts;
    opts.observers = {&counts};
    const SimResult r = simulate(p, opts);

    EXPECT_TRUE(counts.ordered);
    EXPECT_TRUE(counts.cellsFollowInstruction);
    EXPECT_EQ(counts.instructions, r.instructionsSimulated);
    EXPECT_EQ(counts.magics, p.magicCount());
    EXPECT_EQ(counts.magics, r.magicConsumed);
    // Every vacate empties a cell some occupy filled.
    EXPECT_LE(counts.vacates, counts.occupies);
}

TEST(Observer, BankHeatmapAccountingMatchesRawEvents)
{
    const Program &p = adderProgram();
    for (SimOptions opts : machines()) {
        if (opts.arch.sam == SamKind::Conventional)
            continue;
        BankHeatmap heatmap;
        CountingObserver counts;
        opts.observers = {&heatmap, &counts};
        const SimResult r = simulate(p, opts);

        std::int64_t touches = 0;
        std::int64_t occupancy_beats = 0;
        std::int64_t cells = 0;
        for (const BankHeatmap::BankStats &bank : heatmap.banks()) {
            for (const BankHeatmap::CellStats &cell : bank.cells) {
                EXPECT_FALSE(cell.occupied); // closed at onSimEnd
                EXPECT_GE(cell.occupancyBeats, 0);
                EXPECT_LE(cell.occupancyBeats, r.execBeats);
                touches += cell.touches;
                occupancy_beats += cell.occupancyBeats;
                ++cells;
            }
        }
        EXPECT_EQ(touches, counts.occupies);
        EXPECT_EQ(heatmap.execBeats(), r.execBeats);
        EXPECT_LE(occupancy_beats, cells * r.execBeats);
        EXPECT_GT(occupancy_beats, 0);
    }
}

TEST(Observer, TimelineRingKeepsLastRecords)
{
    const Program &p = adderProgram();
    SimOptions opts;
    opts.arch.sam = SamKind::Conventional;
    Timeline timeline(4);
    opts.observers = {&timeline};
    const SimResult r = simulate(p, opts);

    EXPECT_EQ(timeline.seen(), r.instructionsSimulated);
    const auto records = timeline.records();
    ASSERT_EQ(records.size(), 4u);
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(records[i].index,
                  r.instructionsSimulated - 4 +
                      static_cast<std::int64_t>(i));
}

TEST(Observer, SimEndSeesShimOutput)
{
    // The SimEndEvent contract promises the *finished* result: when
    // the recordBreakdown shim is active, onSimEnd must observe its
    // rows already in place.
    class EndInspector : public SimObserver
    {
      public:
        std::size_t breakdownSize = 0;
        std::int64_t execBeats = -1;

        void
        onSimEnd(const SimEndEvent &event) override
        {
            breakdownSize = event.result->breakdown.size();
            execBeats = event.result->execBeats;
        }
    };

    const Program &p = adderProgram();
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    opts.recordBreakdown = true;
    EndInspector inspector;
    opts.observers = {&inspector};
    const SimResult r = simulate(p, opts);

    EXPECT_EQ(inspector.breakdownSize, r.breakdown.size());
    EXPECT_GT(inspector.breakdownSize, 0u);
    EXPECT_EQ(inspector.execBeats, r.execBeats);
}

std::string
jsonlStream(const Program &p, SimOptions opts)
{
    std::ostringstream out;
    JsonlWriter writer(out);
    opts.observers = {&writer};
    simulate(p, opts);
    return out.str();
}

TEST(Observer, JsonlStreamStableAcrossRerunsAndMachines)
{
    const Program &p = adderProgram();
    for (const SimOptions &opts : machines()) {
        const std::string first = jsonlStream(p, opts);
        const std::string second = jsonlStream(p, opts);
        EXPECT_EQ(first, second);
        EXPECT_NE(first.find("\"event\":\"begin\""), std::string::npos);
        EXPECT_NE(first.find("\"event\":\"end\""), std::string::npos);
    }
}

TEST(Observer, SweepEventStreamsIdenticalAcrossWorkerCounts)
{
    const Program &p = adderProgram();
    const std::vector<SimOptions> archs = machines();

    auto streams = [&](std::int32_t threads) {
        // Per-job collectors: each job owns its writer, so worker
        // interleaving cannot mix streams.
        std::vector<std::ostringstream> outs(archs.size());
        std::vector<std::unique_ptr<JsonlWriter>> writers;
        std::vector<SweepJob> jobs;
        for (std::size_t i = 0; i < archs.size(); ++i) {
            writers.push_back(std::make_unique<JsonlWriter>(outs[i]));
            SweepJob job;
            job.name = "job" + std::to_string(i);
            job.program = &p;
            job.options = archs[i];
            job.options.observers = {writers.back().get()};
            jobs.push_back(std::move(job));
        }
        SweepEngine(SweepOptions{threads}).run(jobs);
        std::vector<std::string> result;
        for (auto &out : outs)
            result.push_back(out.str());
        return result;
    };

    const auto serial = streams(1);
    for (const std::string &stream : serial)
        EXPECT_FALSE(stream.empty());
    EXPECT_EQ(serial, streams(2));
    EXPECT_EQ(serial, streams(8));
}

/**
 * Golden JSONL for a small Sec. V program: one H, one T gadget, and a
 * CX on a 9-qubit point SAM — every event kind appears (instr, magic,
 * cell incl. the initial placement) with hand-checkable timing. The
 * golden file pins the exact bytes `lsqca trace` exports; regenerate
 * deliberately (see docs/OBSERVERS.md) if the event schema changes.
 */
TEST(Observer, GoldenJsonlForSmallSectionVProgram)
{
    Circuit circ(9);
    circ.h(0);
    circ.t(4);
    circ.cx(0, 8);
    const Program p = translate(lowerToCliffordT(circ));

    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    const std::string stream = jsonlStream(p, opts);

    const std::string path =
        std::string(LSQCA_SOURCE_DIR) + "/tests/golden/trace_small.jsonl";
    std::ifstream golden(path);
    ASSERT_TRUE(golden.good()) << "missing golden file " << path;
    std::ostringstream expected;
    expected << golden.rdbuf();
    EXPECT_EQ(stream, expected.str());
}

} // namespace
} // namespace lsqca
