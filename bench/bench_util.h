#ifndef LSQCA_BENCH_BENCH_UTIL_H
#define LSQCA_BENCH_BENCH_UTIL_H

/**
 * @file
 * Shared plumbing for the figure/table benches: argument parsing, spec
 * execution through the declarative experiment API (src/api), and CSV
 * mirroring. The figure benches build a SweepSpec (api/paper_specs.h),
 * run it through the same runSpec() entry point the `lsqca` CLI uses,
 * and only keep their table-rendering phase here.
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/spec.h"
#include "common/error.h"
#include "common/table.h"
#include "sim/simulator.h"

namespace lsqca::bench {

/**
 * Parse "--csv <dir>", "--full", "--threads N", "--out <dir>", and
 * "--smoke" from argv. Unknown arguments, missing values, and
 * malformed numbers are fatal (exit 2) — a typo must not silently run
 * a different experiment.
 */
struct BenchArgs
{
    std::optional<std::string> csvDir;
    bool full = false;
    /** Sweep workers; 0 = hardware concurrency. */
    std::int32_t threads = 0;
    /** Where BENCH_*.json lands. */
    std::string outDir = "bench/out";
    /** Reduced-size run for CI (micro_kernels). */
    bool smoke = false;
};

[[noreturn]] inline void
argError(const std::string &message)
{
    std::cerr << "error: " << message
              << "\n(supported: --csv <dir>, --full, --threads N,"
                 " --out <dir>, --smoke)\n";
    std::exit(2);
}

inline BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            argError(std::string("missing value for ") + argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv") == 0) {
            args.csvDir = value(i);
        } else if (std::strcmp(argv[i], "--full") == 0) {
            args.full = true;
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            try {
                args.threads = api::parseThreadCount(value(i));
            } catch (const ConfigError &e) {
                argError(e.what());
            }
        } else if (std::strcmp(argv[i], "--out") == 0) {
            args.outDir = value(i);
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            args.smoke = true;
        } else {
            argError(std::string("unknown argument: ") + argv[i]);
        }
    }
    return args;
}

/**
 * A SpecRun plus the registry that owns its programs: run.jobs[].program
 * points into the registry's memo, so the two must travel together.
 */
struct BenchRun
{
    api::BenchmarkRegistry registry;
    api::SpecRun run;
};

/** Run @p spec through the paper registry, honouring BenchArgs. */
inline BenchRun
runSpec(const api::SweepSpec &spec, const BenchArgs &args)
{
    BenchRun bench_run{api::BenchmarkRegistry::paper(), {}};
    api::RunSpecOptions options;
    options.threads = args.threads;
    options.outDir = args.outDir;
    bench_run.run = api::runSpec(spec, bench_run.registry, options);
    return bench_run;
}

/**
 * Submission-order cursor for the benches' table phase: the table
 * loops re-walk the spec's axis structure consuming one result per
 * job, and the cursor asserts the two walks stay aligned.
 */
class ResultCursor
{
  public:
    explicit ResultCursor(const api::SpecRun &run) : run_(run) {}

    const SimResult &
    next()
    {
        LSQCA_REQUIRE(cursor_ < run_.report.results.size(),
                      "result cursor ran past the job list");
        return run_.report.results[cursor_++];
    }

  private:
    const api::SpecRun &run_;
    std::size_t cursor_ = 0;
};

/** Print a table and mirror it to <dir>/<stem>.csv when requested. */
inline void
emit(const TextTable &table, const std::string &title,
     const BenchArgs &args, const std::string &stem)
{
    std::cout << table.render(title) << "\n";
    if (args.csvDir)
        table.writeCsv(*args.csvDir + "/" + stem + ".csv");
}

} // namespace lsqca::bench

#endif // LSQCA_BENCH_BENCH_UTIL_H
