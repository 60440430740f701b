/**
 * @file
 * Fig. 13 reproduction: CPI (code beats per counted instruction) for the
 * seven benchmark programs across the six machine configurations (point
 * SAM with 1/2 banks, line SAM with 1/2/4 banks, conventional) at 1, 2,
 * and 4 magic-state factories.
 *
 * The shape to reproduce: with one factory, bv/cat/ghz show large LSQCA
 * penalties (no magic bottleneck to hide behind) while the arithmetic
 * and SELECT benchmarks stay close to conventional; more factories widen
 * the gap; more banks close it.
 *
 * The sweep itself is declarative: api::specs::fig13() (the same spec
 * `lsqca run specs/fig13.json` executes) expands into every
 * (benchmark x machine x factory) point and fans out over the sweep
 * engine (`--threads N`); this file only renders the tables.
 * BENCH_fig13.json records per-job metrics.
 */

#include "api/paper_specs.h"
#include "bench_util.h"

int
main(int argc, char **argv)
{
    using namespace lsqca;
    const auto args = bench::parseArgs(argc, argv);
    const api::SweepSpec spec = api::specs::fig13(args.full);
    const bench::BenchRun bench_run = bench::runSpec(spec, args);

    const auto &loads = spec.axes[1].values;
    const std::size_t machines_per_load = spec.axes[2].values.size();
    bench::ResultCursor cursor(bench_run.run);
    for (std::int32_t factories : {1, 2, 4}) {
        TextTable table({"benchmark", "point#1", "point#2", "line#1",
                         "line#2", "line#4", "conventional",
                         "overhead(line#1)", "overhead(point#1)"});
        for (const auto &load : loads) {
            std::vector<double> cpis;
            for (std::size_t m = 0; m < machines_per_load; ++m)
                cpis.push_back(cursor.next().cpi);
            std::vector<std::string> row{load.name};
            for (double cpi : cpis)
                row.push_back(TextTable::num(cpi, 2));
            const double conv = cpis.back();
            row.push_back(TextTable::num(cpis[2] / conv, 2));
            row.push_back(TextTable::num(cpis[0] / conv, 2));
            table.addRow(row);
        }
        bench::emit(table,
                    "Fig. 13: CPI with " + std::to_string(factories) +
                        " magic-state factor" +
                        (factories == 1 ? "y" : "ies"),
                    args, "fig13_f" + std::to_string(factories));
    }
    return 0;
}
