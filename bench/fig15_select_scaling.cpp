/**
 * @file
 * Fig. 15 reproduction: SELECT instance-size scaling. Lattice widths
 * 21/41/61/81/101 give 467/1,711/3,753/6,595/10,235 data qubits; each
 * runs on point/line SAMs and on the hybrid layouts that pin the
 * control+temporal registers into the conventional region, versus the
 * conventional baseline, for 1/2/4 factories.
 *
 * The large instances are evaluated on a steady-state unary-iteration
 * prefix (the loop is periodic); pass --full for complete circuits.
 * The declarative api::specs::fig15() sweep spec synthesizes each
 * width's circuit once (registry memoization) and fans every machine
 * point over the sweep engine (`--threads N`); this file only renders
 * the tables. BENCH_fig15.json records per-job metrics.
 */

#include "api/paper_specs.h"
#include "bench_util.h"
#include "synth/benchmarks.h"

int
main(int argc, char **argv)
{
    using namespace lsqca;
    const auto args = bench::parseArgs(argc, argv);
    const api::SweepSpec spec = api::specs::fig15(args.full);
    const bench::BenchRun bench_run = bench::runSpec(spec, args);

    const std::int32_t widths[] = {21, 41, 61, 81, 101};
    // The machine axis: conventional first, then the eight configs.
    const auto &configs = spec.axes[2].values;

    bench::ResultCursor cursor(bench_run.run);
    for (std::int32_t factories : {1, 2, 4}) {
        TextTable table({"width", "data qubits", "config", "density",
                         "exec overhead"});
        for (std::int32_t width : widths) {
            const double conv_beats =
                static_cast<double>(cursor.next().execBeats);
            for (std::size_t c = 1; c < configs.size(); ++c) {
                const SimResult &r = cursor.next();
                table.addRow(
                    {std::to_string(width),
                     std::to_string(selectLayout(width).totalQubits),
                     configs[c].name, TextTable::num(r.density(), 3),
                     TextTable::num(static_cast<double>(r.execBeats) /
                                        conv_beats,
                                    3)});
            }
        }
        bench::emit(table,
                    "Fig. 15: SELECT scaling with " +
                        std::to_string(factories) + " factor" +
                        (factories == 1 ? "y" : "ies"),
                    args, "fig15_f" + std::to_string(factories));
    }
    return 0;
}
