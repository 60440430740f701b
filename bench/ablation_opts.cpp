/**
 * @file
 * Ablations of the Sec. V optimizations, as called out in DESIGN.md:
 *   - locality-aware store on/off,
 *   - in-memory operations on/off (with matching LD/ST translation),
 *   - the direct-surgery extension (beyond-paper),
 *   - magic-buffer depth sweep,
 *   - bank-count sweep.
 * Reported on the two headline workloads (multiplier, SELECT) plus the
 * worst-case Clifford chain (cat).
 *
 * All variant points come from the declarative api::specs::ablation()
 * sweep spec — including the LD/ST translation swap, expressed as a
 * translate patch on the variant axis — and fan out over the sweep
 * engine (`--threads N`); this file only renders the tables.
 * BENCH_ablation.json records per-job metrics.
 */

#include "api/paper_specs.h"
#include "bench_util.h"

int
main(int argc, char **argv)
{
    using namespace lsqca;
    const auto args = bench::parseArgs(argc, argv);
    const api::SweepSpec spec = api::specs::ablation(args.full);
    const bench::BenchRun bench_run = bench::runSpec(spec, args);

    const auto &works = spec.axes[0].values;
    // Variant axis: "conventional", then (variant x point/line) pairs
    // named "<variant label>/<machine label>".
    const auto &variants = spec.axes[1].values;
    const std::size_t num_variants = (variants.size() - 1) / 2;

    bench::ResultCursor cursor(bench_run.run);
    for (const auto &work : works) {
        const double conv =
            static_cast<double>(cursor.next().execBeats);
        TextTable table({"variant", "point#1 overhead",
                         "line#1 overhead"});
        for (std::size_t v = 0; v < num_variants; ++v) {
            // Machine labels contain no '/', so the variant label is
            // everything before the last separator.
            const std::string &name = variants[1 + 2 * v].name;
            std::vector<std::string> row{
                name.substr(0, name.rfind('/'))};
            for (int s = 0; s < 2; ++s)
                row.push_back(TextTable::num(
                    static_cast<double>(cursor.next().execBeats) / conv,
                    3));
            table.addRow(row);
        }
        bench::emit(table,
                    "Ablation (" + work.name +
                        ", factory 1, overhead vs conventional)",
                    args, "ablation_" + work.name);
    }
    return 0;
}
