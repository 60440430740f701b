/**
 * @file
 * SELECT-circuit study for 2-D Heisenberg models (the paper's primary
 * quantum-simulation workload): synthesizes SELECT for a given lattice
 * width, reports the register access-locality analysis of Sec. III-B,
 * then compares pure-SAM and hybrid floorplans (control+temporal pinned
 * conventionally) as in Sec. VI-C.
 *
 * Usage: select_heisenberg [lattice-width]   (default 11 -> 143 qubits)
 */

#include <cstdlib>
#include <iostream>

#include "analysis/trace_analysis.h"
#include "circuit/lowering.h"
#include "common/table.h"
#include "sim/collectors/trace_collector.h"
#include "sim/simulator.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

int
main(int argc, char **argv)
{
    using namespace lsqca;
    const std::int32_t width =
        argc > 1 ? std::atoi(argv[1]) : 11;

    const SelectLayout layout = selectLayout(width);
    std::cout << "SELECT for the " << width << "x" << width
              << " Heisenberg model: " << layout.numTerms << " terms, "
              << layout.totalQubits << " qubits (control "
              << layout.controlBits << ", temporal "
              << layout.temporalBits << ", system " << layout.systemBits
              << ")\n\n";

    SelectParams params;
    params.width = width;
    params.maxTerms = std::min<std::int64_t>(layout.numTerms, 2000);
    const Program program =
        translate(lowerToCliffordT(makeSelect(params)));

    // Sec. III-B locality analysis under ideal conditions.
    SimOptions ideal;
    ideal.arch.sam = SamKind::Conventional;
    ideal.arch.instantMagic = true;
    collectors::TraceCollector trace;
    ideal.observers = {&trace};
    simulate(program, ideal);
    const TraceAnalysis analysis(program, trace);

    TextTable locality({"register", "references", "median period",
                        "p99 period"});
    for (const auto &group : analysis.groups()) {
        const bool has = group.periods.count() > 0;
        locality.addRow(
            {group.name, std::to_string(group.references),
             has ? TextTable::num(group.periods.quantile(0.5), 1) : "-",
             has ? TextTable::num(group.periods.quantile(0.99), 1)
                 : "-"});
    }
    std::cout << locality.render("memory reference locality (Fig. 8a/8b)")
              << "\nmagic demand: one state per "
              << analysis.magicDemandInterval()
              << " beats | sequential-access fraction: "
              << analysis.sequentialFraction() << "\n\n";

    // Architecture comparison, factory count 1.
    const SimResult conv = simulateConventional(program);
    const double hot = static_cast<double>(layout.controlBits +
                                           layout.temporalBits) /
                       static_cast<double>(layout.totalQubits);
    TextTable archs({"machine", "density", "overhead"});
    auto addRow = [&](const std::string &name, SamKind sam, int banks,
                      double f) {
        SimOptions opts;
        opts.arch.sam = sam;
        opts.arch.banks = banks;
        opts.arch.hybridFraction = f;
        const SimResult r = simulate(program, opts);
        archs.addRow({name, TextTable::num(r.density(), 3),
                      TextTable::num(static_cast<double>(r.execBeats) /
                                         static_cast<double>(
                                             conv.execBeats),
                                     3)});
    };
    addRow("point#1", SamKind::Point, 1, 0.0);
    addRow("line#1", SamKind::Line, 1, 0.0);
    addRow("line#4", SamKind::Line, 4, 0.0);
    addRow("hybrid point#1 (ctrl+temp conv)", SamKind::Point, 1, hot);
    addRow("hybrid line#1 (ctrl+temp conv)", SamKind::Line, 1, hot);
    archs.addRow({"conventional", "0.500", "1.000"});
    std::cout << archs.render("architecture comparison, 1 factory");
    std::cout << "\nPaper reference: hybrid layouts keep ~92-94% density "
                 "at ~6-7% overhead (Sec. VI-C, Fig. 15).\n";
    return 0;
}
