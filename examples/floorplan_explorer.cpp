/**
 * @file
 * Design-space explorer: sweeps SAM kind, bank count, factory count and
 * hybrid ratio for one benchmark and prints the density/overhead
 * frontier — the workflow an architect would use to size a machine for
 * a target workload (Sec. IV-D).
 *
 * Usage: floorplan_explorer [benchmark] [prefix]
 *   benchmark in {adder, bv, cat, ghz, multiplier, square_root, select}
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "circuit/lowering.h"
#include "common/table.h"
#include "sim/simulator.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace {

lsqca::Circuit
pick(const std::string &name)
{
    using namespace lsqca;
    if (name == "adder")
        return makeAdder();
    if (name == "bv")
        return makeBernsteinVazirani();
    if (name == "cat")
        return makeCat();
    if (name == "ghz")
        return makeGhz();
    if (name == "multiplier")
        return makeMultiplier();
    if (name == "square_root")
        return makeSquareRoot();
    if (name == "select")
        return makeSelect({11, 0});
    throw ConfigError("unknown benchmark: " + name);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lsqca;
    const std::string name = argc > 1 ? argv[1] : "multiplier";
    const std::int64_t prefix =
        argc > 2 ? std::atoll(argv[2]) : 60'000;

    const Program program = translate(lowerToCliffordT(pick(name)));
    std::cout << "exploring " << name << ": " << program.numVariables()
              << " qubits, " << program.size() << " instructions\n\n";

    for (std::int32_t factories : {1, 2, 4}) {
        const SimResult conv = simulateConventional(
            program,
            {.arch = {.factories = factories}, .maxInstructions = prefix});
        TextTable table({"config", "density", "overhead",
                         "memory beats", "magic stall"});
        for (const auto &[label, sam, banks] :
             {std::tuple<const char *, SamKind, int>{"point#1",
                                                     SamKind::Point, 1},
              {"point#2", SamKind::Point, 2},
              {"line#1", SamKind::Line, 1},
              {"line#2", SamKind::Line, 2},
              {"line#4", SamKind::Line, 4}}) {
            for (double f : {0.0, 0.25, 0.5}) {
                SimOptions opts;
                opts.arch.sam = sam;
                opts.arch.banks = banks;
                opts.arch.factories = factories;
                opts.arch.hybridFraction = f;
                opts.maxInstructions = prefix;
                const SimResult r = simulate(program, opts);
                table.addRow(
                    {std::string(label) +
                         (f > 0 ? " f=" + TextTable::num(f, 2) : ""),
                     TextTable::num(r.density(), 3),
                     TextTable::num(static_cast<double>(r.execBeats) /
                                        static_cast<double>(
                                            conv.execBeats),
                                    3),
                     std::to_string(r.memoryBeats),
                     std::to_string(r.magicStallBeats)});
            }
        }
        std::cout << table.render("factory count " +
                                  std::to_string(factories))
                  << "\n";
    }
    return 0;
}
