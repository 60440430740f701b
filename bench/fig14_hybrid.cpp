/**
 * @file
 * Fig. 14 reproduction: the hybrid-floorplan trade-off between memory
 * density and execution-time overhead. For each benchmark, SAM design,
 * and factory count, the conventional-floorplan ratio f sweeps 0..1 in
 * steps of 0.05; f=0 is pure LSQCA, f=1 is the conventional baseline.
 * A GEOMEAN series across the seven benchmarks is emitted as in the
 * paper's bottom row.
 *
 * Default runs use steady-state prefixes for the long benchmarks; pass
 * --full for complete executions (slower). The ~1.8k simulation points
 * come from the declarative api::specs::fig14() sweep spec and fan out
 * over the sweep engine (`--threads N`); this file only renders the
 * tables. BENCH_fig14.json records per-job metrics.
 */

#include <map>

#include "api/paper_specs.h"
#include "bench_util.h"
#include "common/stats.h"

namespace lsqca {
namespace {

constexpr const char *kChoices[] = {
    "point#1",
    "point#2",
    "line#1",
    "line#4",
};

} // namespace
} // namespace lsqca

int
main(int argc, char **argv)
{
    using namespace lsqca;
    const auto args = bench::parseArgs(argc, argv);
    const api::SweepSpec spec = api::specs::fig14(args.full);
    const bench::BenchRun bench_run = bench::runSpec(spec, args);

    const auto &loads = spec.axes[1].values;
    bench::ResultCursor cursor(bench_run.run);
    for (std::int32_t factories : {1, 2, 4}) {
        // overhead[label][f-step] accumulated for the GEOMEAN row.
        std::map<std::string, std::vector<std::vector<double>>> overs;
        std::map<std::string, std::vector<std::vector<double>>> dens;

        for (const auto &load : loads) {
            const double conv_beats =
                static_cast<double>(cursor.next().execBeats);

            TextTable table({"f", "point#1 dens", "point#1 ovh",
                             "point#2 dens", "point#2 ovh",
                             "line#1 dens", "line#1 ovh",
                             "line#4 dens", "line#4 ovh"});
            for (int step = 0; step <= 20; ++step) {
                const double f = 0.05 * step;
                std::vector<std::string> row{TextTable::num(f, 2)};
                for (const char *choice : kChoices) {
                    const SimResult &r = cursor.next();
                    const double overhead =
                        static_cast<double>(r.execBeats) / conv_beats;
                    row.push_back(TextTable::num(r.density(), 3));
                    row.push_back(TextTable::num(overhead, 3));
                    auto &o = overs[choice];
                    auto &d = dens[choice];
                    if (o.size() <= static_cast<std::size_t>(step)) {
                        o.resize(21);
                        d.resize(21);
                    }
                    o[static_cast<std::size_t>(step)].push_back(overhead);
                    d[static_cast<std::size_t>(step)].push_back(
                        r.density());
                }
                table.addRow(row);
            }
            bench::emit(table,
                        "Fig. 14 (" + load.name + ", " +
                            std::to_string(factories) +
                            " factories): density vs execution-time "
                            "overhead",
                        args,
                        "fig14_" + load.name + "_f" +
                            std::to_string(factories));
        }

        TextTable geo({"f", "point#1 dens", "point#1 ovh",
                       "point#2 dens", "point#2 ovh", "line#1 dens",
                       "line#1 ovh", "line#4 dens", "line#4 ovh"});
        for (int step = 0; step <= 20; ++step) {
            std::vector<std::string> row{TextTable::num(0.05 * step, 2)};
            for (const char *choice : kChoices) {
                row.push_back(TextTable::num(
                    geomean(dens[choice][static_cast<std::size_t>(step)]),
                    3));
                row.push_back(TextTable::num(
                    geomean(
                        overs[choice][static_cast<std::size_t>(step)]),
                    3));
            }
            geo.addRow(row);
        }
        bench::emit(geo,
                    "Fig. 14 (GEOMEAN over 7 benchmarks, " +
                        std::to_string(factories) + " factories)",
                    args, "fig14_geomean_f" + std::to_string(factories));
    }
    return 0;
}
