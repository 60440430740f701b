/**
 * @file
 * Chrono-based microbenchmarks for the hot paths this repo's perf work
 * tracks: whole simulate() calls per machine kind (plus lockstep lanes,
 * and the per-job Machine setup in front of each), the program build
 * in front of a sweep, and the Json and job-cache work of a cached
 * resubmit. Emits BENCH_micro.json so successive runs are
 * machine-comparable (tools/bench_diff.py fails CI on >10% regressions).
 *
 * Usage:
 *   micro_kernels [--smoke] [--out <dir>] [--csv <dir>]
 *
 * --smoke shrinks sizes/reps for CI; timings stay comparable between
 * two smoke runs (or two full runs), not across modes.
 */

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <string>

#include "api/paper_specs.h"
#include "api/registry.h"
#include "api/spec.h"
#include "arch/line_sam.h"
#include "arch/point_sam.h"
#include "bench_util.h"
#include "circuit/lowering.h"
#include "common/fs.h"
#include "common/json.h"
#include "geom/grid.h"
#include "service/cache.h"
#include "service/journal.h"
#include "sim/machine.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

/** Keep @p value live without emitting it (loop bodies under test). */
inline void
doNotOptimize(std::int64_t value)
{
    asm volatile("" : : "g"(value) : "memory");
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-of-@p reps wall time of one call to @p fn. */
template <typename F>
double
bestOf(int reps, F &&fn)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const double t0 = now();
        fn();
        best = std::min(best, now() - t0);
    }
    return best;
}

/**
 * Best-of-@p reps wall time of one call to @p fn, where each sample
 * repeats the call until it lasts at least about 1 ms: a call of a
 * few microseconds, timed alone, is lost in clock and scheduler noise.
 */
template <typename F>
double
bestPerCall(int reps, F &&fn)
{
    const auto calls = [&](std::int64_t n) {
        for (std::int64_t i = 0; i < n; ++i)
            fn();
    };
    std::int64_t n = 1;
    while (n < (std::int64_t{1} << 24) &&
           bestOf(1, [&] { calls(n); }) < 1e-3)
        n *= 2;
    return bestOf(reps, [&] { calls(n); }) / static_cast<double>(n);
}

struct Entry
{
    std::string name;
    double seconds;      ///< best-of wall time per call
    double perUnitNs;    ///< ns per instruction / amplitude / query
    const char *unit;
    std::int64_t units;  ///< instructions/amplitudes/queries per call
    /** JSON metric key; bank kernels use ns_per_loadCost etc. so
     *  tools/bench_diff.py gates each query kind by name. */
    const char *metricKey = "ns_per_unit";
};

} // namespace
} // namespace lsqca

int
main(int argc, char **argv)
{
    using namespace lsqca;
    const auto args = bench::parseArgs(argc, argv);

    const int simReps = args.smoke ? 2 : 5;
    const std::int32_t adderBits = args.smoke ? 16 : 64;

    std::vector<Entry> entries;
    auto record = [&](std::string name, double seconds, const char *unit,
                      std::int64_t units,
                      const char *metric_key = "ns_per_unit") {
        entries.push_back({std::move(name), seconds,
                           units > 0 ? seconds * 1e9 /
                                           static_cast<double>(units)
                                     : 0.0,
                           unit, units, metric_key});
    };

    // ---- simulate() per machine kind -----------------------------------
    const Program adder =
        translate(lowerToCliffordT(makeAdder(adderBits)));
    {
        SimOptions opts;
        opts.arch.sam = SamKind::Conventional;
        record("simulate/conventional/adder",
               bestOf(simReps, [&] { simulate(adder, opts); }),
               "instruction", adder.size());
    }
    {
        SimOptions opts;
        opts.arch.sam = SamKind::Point;
        record("simulate/point#1/adder",
               bestOf(simReps, [&] { simulate(adder, opts); }),
               "instruction", adder.size());
    }
    {
        // The same point at 1, 2 and 4 factories as lanes of one bank
        // walk (simulateLanes, what a sweep runs for those three jobs),
        // per instruction per lane: it reads directly against
        // simulate/point#1/adder, and the gap is what sharing the walk
        // saves.
        std::vector<SimOptions> lanes(3);
        for (std::size_t k = 0; k < lanes.size(); ++k) {
            lanes[k].arch.sam = SamKind::Point;
            lanes[k].arch.factories = std::int32_t{1} << k;
        }
        record("simulate/point#1/adder/lanes-f124",
               bestOf(simReps, [&] { simulateLanes(adder, lanes); }),
               "lane-instruction",
               adder.size() * static_cast<std::int64_t>(lanes.size()));
    }
    {
        // Observer-path overhead probe: same sweep point with one no-op
        // observer attached, so the event-construction + bank-hook cost
        // of the OBSERVE instantiation is tracked next to the plain
        // kernel above (the no-observer path compiles event-free; this
        // pins what turning telemetry ON costs).
        SimOptions opts;
        opts.arch.sam = SamKind::Point;
        SimObserver null_observer;
        opts.observers.push_back(&null_observer);
        record("simulate/point#1/adder/null-observer",
               bestOf(simReps, [&] { simulate(adder, opts); }),
               "instruction", adder.size(),
               "ns_per_instr_null_observer");
    }
    {
        SimOptions opts;
        opts.arch.sam = SamKind::Line;
        opts.arch.banks = 4;
        record("simulate/line#4/adder",
               bestOf(simReps, [&] { simulate(adder, opts); }),
               "instruction", adder.size());
        // The adder's object code stays cache-resident; a full-length
        // SELECT(61) (1,434,844 instructions, 23 MB) streams from
        // memory, as fig15 --full's programs do. Together the two pin
        // the decode cost on both sides of the cache. --smoke runs
        // SELECT(21) to stay CI-sized.
        SelectParams params;
        params.width = args.smoke ? 21 : 61;
        const Program select = lowerAndTranslate(makeSelect(params));
        record("simulate/line#4/select61-full",
               bestOf(simReps, [&] { simulate(select, opts); }),
               "instruction", select.size());
    }
    {
        SimOptions opts;
        opts.arch.sam = SamKind::Line;
        opts.arch.hybridFraction = 0.25;
        record("simulate/hybrid-line#1/adder",
               bestOf(simReps, [&] { simulate(adder, opts); }),
               "instruction", adder.size());
    }
    {
        // The hybrid line point at 1, 2 and 4 factories as lanes: its
        // conventional-region instructions have no bank work to share,
        // so the per-lane timing cost weighs most here. Reads against
        // simulate/hybrid-line#1/adder as the point lanes do above.
        std::vector<SimOptions> lanes(3);
        for (std::size_t k = 0; k < lanes.size(); ++k) {
            lanes[k].arch.sam = SamKind::Line;
            lanes[k].arch.hybridFraction = 0.25;
            lanes[k].arch.factories = std::int32_t{1} << k;
        }
        record("simulate/hybrid-line#1/adder/lanes-f124",
               bestOf(simReps, [&] { simulateLanes(adder, lanes); }),
               "lane-instruction",
               adder.size() * static_cast<std::int64_t>(lanes.size()));
    }

    // ---- sampled-estimator fast-forward kernel -------------------------
    // Functional warming throughput: replay the adder stream through
    // fastForwardOne() the way the sampled estimator walks skipped
    // spans (memory-op skip-list, no timing). Normalized per *program*
    // instruction so it reads directly against simulate/point#1/adder
    // — the gap between the two is the most sampling can save per
    // skipped instruction (docs/SAMPLING.md).
    {
        SimOptions opts;
        opts.arch.sam = SamKind::Point;
        record("estimate/ff/point#1/adder",
               bestOf(simReps,
                      [&] {
                          detail::Machine<SamKind::Point, false>
                              machine(adder, opts);
                          const Instruction *code =
                              adder.instructions().data();
                          const auto index = adder.streamIndex();
                          for (const std::int64_t i : index->memOps)
                              machine.fastForwardOne(code[i]);
                          doNotOptimize(machine.pmExecuted());
                      }),
               "instruction", adder.size(), "ns_per_ff_instr");
    }

    // ---- per-job Machine setup -----------------------------------------
    // What every sweep job pays before its first instruction: region
    // and bank placement plus ready-timeline sizing, here at a 60k
    // prefix of a 0.36M-instruction (smoke) or 0.64M-instruction
    // SELECT program. Sizing reads the program's per-limit prefix
    // memo, so the cost must not grow with program length; a per-job
    // O(program) scan would raise it by more than an order of
    // magnitude.
    {
        SelectParams params;
        params.width = args.smoke ? 31 : 41;
        const Circuit lowered = lowerToCliffordT(makeSelect(params));
        const Program select = translate(lowered);
        SimOptions opts;
        opts.arch.sam = SamKind::Point;
        opts.maxInstructions = 60000;
        const std::int64_t setupsPerRep = args.smoke ? 20 : 100;
        // The first job at a prefix fills the memo; time the rest.
        detail::Machine<SamKind::Point, false> first(select, opts);
        doNotOptimize(first.pmExecuted());
        record("sim/machine-setup",
               bestOf(simReps,
                      [&] {
                          for (std::int64_t i = 0; i < setupsPerRep; ++i) {
                              detail::Machine<SamKind::Point, false>
                                  machine(select, opts);
                              doNotOptimize(machine.pmExecuted());
                          }
                      }),
               "construction", setupsPerRep, "ns_per_machine_setup");
    }

    // ---- program build -------------------------------------------------
    // The build behind every sweep program, from the synthesized macro
    // circuit of a full-length SELECT(41) to its 642,973 instructions:
    // two-pass (lowerToCliffordT, then translate; perfbench's traced
    // circuit.lower_s and translate.s time these two calls) against
    // one-pass (lowerAndTranslate, which the registry runs).
    {
        SelectParams params;
        params.width = 41;
        const Circuit macro = makeSelect(params);
        const std::int64_t built = lowerAndTranslate(macro).size();
        // The reps alternate between the two builds, so a noisy stretch
        // of a shared host slows both instead of skewing their ratio.
        double twoPass = 1e300;
        double onePass = 1e300;
        for (int r = 0; r < 2 * simReps; ++r) {
            twoPass = std::min(twoPass, bestOf(1, [&] {
                doNotOptimize(translate(lowerToCliffordT(macro)).size());
            }));
            onePass = std::min(onePass, bestOf(1, [&] {
                doNotOptimize(lowerAndTranslate(macro).size());
            }));
        }
        record("build/select41/two-pass", twoPass, "instruction", built,
               "ns_per_built_instr");
        record("build/select41/one-pass", onePass, "instruction", built,
               "ns_per_built_instr");
    }
    // The default multiplier (1,038,258 instructions) built whole, and
    // built to the 60k-instruction prefix that fig13, fig14 and the
    // ablation simulate, which is as far as runSpec builds it for them.
    // perfbench's traced run builds whole programs itself, so only this
    // pair sees the prefix stop. Reps alternate as above.
    {
        const Circuit macro = makeMultiplier(MultiplierParams{});
        double whole = 1e300;
        double prefix = 1e300;
        for (int r = 0; r < 2 * simReps; ++r) {
            whole = std::min(whole, bestOf(1, [&] {
                doNotOptimize(lowerAndTranslate(macro).size());
            }));
            prefix = std::min(prefix, bestOf(1, [&] {
                doNotOptimize(lowerAndTranslate(macro, {},
                                                ToffoliStyle::Textbook7T,
                                                60000)
                                  .size());
            }));
        }
        record("build/multiplier/full", whole, "build", 1,
               "ns_per_build");
        record("build/multiplier/prefix60k", prefix, "build", 1,
               "ns_per_build");
    }

    // ---- bank cost-model kernels ---------------------------------------
    // The point/line simulate() hot path is bound by these queries
    // (ROADMAP "Performance & benchmarking"); tracking them per query
    // kind pins the occupancy-index win and gates future regressions.
    const std::int32_t bankCap = args.smoke ? 99 : 399;
    const int bankReps = args.smoke ? 3 : 7;
    std::vector<QubitId> bankVars(static_cast<std::size_t>(bankCap));
    std::iota(bankVars.begin(), bankVars.end(), 0);
    {
        PointSamBank bank(bankCap, Latencies{});
        bank.placeInitial(bankVars);
        record("bank/point/loadCost",
               bestPerCall(bankReps,
                      [&] {
                          std::int64_t sink = 0;
                          for (QubitId q = 0; q < bankCap; ++q)
                              sink += bank.loadCost(q);
                          doNotOptimize(sink);
                      }),
               "query", bankCap, "ns_per_loadCost");
        // Load/locality-store churn: storeCost + commitStore exercise
        // the nearest-empty index and the makeRoomAt hole walk.
        record("bank/point/storeCost",
               bestOf(bankReps,
                      [&] {
                          std::int64_t sink = 0;
                          for (QubitId q = 0; q < bankCap; ++q) {
                              bank.commitLoad(q);
                              const bool locality = (q & 1) == 0;
                              sink += bank.storeCost(q, locality);
                              bank.commitStore(q, locality);
                          }
                          doNotOptimize(sink);
                      }),
               "query", bankCap, "ns_per_storeCost");
    }
    {
        LineSamBank bank(bankCap, Latencies{});
        bank.placeInitial(bankVars);
        record("bank/line/loadCost",
               bestPerCall(bankReps,
                      [&] {
                          std::int64_t sink = 0;
                          for (QubitId q = 0; q < bankCap; ++q)
                              sink += bank.loadCost(q);
                          doNotOptimize(sink);
                      }),
               "query", bankCap, "ns_per_loadCost");
        record("bank/line/storeCost",
               bestOf(bankReps,
                      [&] {
                          std::int64_t sink = 0;
                          for (QubitId q = 0; q < bankCap; ++q) {
                              bank.commitLoad(q);
                              const bool locality = (q & 1) == 0;
                              sink += bank.storeCost(q, locality);
                              bank.commitStore(q, locality);
                          }
                          doNotOptimize(sink);
                      }),
               "query", bankCap, "ns_per_storeCost");
    }
    // fetchToPortCost/commitFetchToPort is the pair every point-SAM
    // MZZ_M, CX and CZ of a SELECT program runs (they hold no LD/ST).
    // Capacity 360 is a 19 x 19 bank with no spare cell (only the scan
    // hole is empty); 400 is 21 x 20 with 19 spare cells.
    for (const std::int32_t cap : {360, 400}) {
        std::vector<QubitId> vars(static_cast<std::size_t>(cap));
        std::iota(vars.begin(), vars.end(), 0);
        PointSamBank bank(cap, Latencies{});
        bank.placeInitial(vars);
        record("bank/point/fetchToPort/cap" + std::to_string(cap),
               bestOf(bankReps,
                      [&] {
                          std::int64_t sink = 0;
                          for (QubitId q = 0; q < cap; ++q) {
                              sink += bank.fetchToPortCost(q);
                              bank.commitFetchToPort(q);
                          }
                          doNotOptimize(sink);
                      }),
               "query", cap, "ns_per_fetchToPort");
    }
    {
        // Near-full grid (the SAM operating point): every cell queried
        // as a target against a handful of holes.
        const std::int32_t side = args.smoke ? 16 : 30;
        OccupancyGrid grid(side, side);
        QubitId next = 0;
        for (std::int32_t r = 0; r < side; ++r)
            for (std::int32_t c = 0; c < side; ++c)
                if ((r * side + c) % (side * side / 4) != 1)
                    grid.place(next++, {r, c});
        record("bank/grid/nearestEmpty",
               bestOf(bankReps,
                      [&] {
                          std::int64_t sink = 0;
                          for (std::int32_t r = 0; r < side; ++r)
                              for (std::int32_t c = 0; c < side; ++c)
                                  sink +=
                                      grid.nearestEmpty({r, c})->row;
                          doNotOptimize(sink);
                      }),
               "query", static_cast<std::int64_t>(side) * side,
               "ns_per_nearestEmpty");
    }

    {
        // Journal append cost (docs/METRICS.md): one campaign event
        // through Journal::record — Json build, compact dump, one
        // write(2) on an O_APPEND fd. The orchestrator pays this a
        // handful of times per process spawn; the number here pins
        // that it stays noise next to fork+exec.
        const std::int64_t appendsPerRep = args.smoke ? 2000 : 20000;
        const std::string dir = args.outDir + "/journal_bench";
        fsutil::makeDirs(dir);
        const std::string path = dir + "/events.jsonl";
        record("service/journal/append",
               bestOf(bankReps,
                      [&] {
                          fsutil::removeFile(path);
                          auto journal = service::Journal::open(
                              path, service::JournalClock::Logical);
                          Json fields = Json::object();
                          fields.set("shard", std::int64_t{3});
                          fields.set("attempt", std::int64_t{1});
                          fields.set("worker", std::int64_t{2});
                          for (std::int64_t i = 0; i < appendsPerRep;
                               ++i)
                              journal.record("spawn", fields);
                          doNotOptimize(journal.seq());
                      }),
               "append", appendsPerRep, "ns_per_journal_append");
        fsutil::removeFile(path);
    }

    // ---- Json and the job cache ----------------------------------------
    // What a cached resubmit pays per job: its fingerprint (over all of
    // fig14), the manifest a store records (here fig14's last job,
    // SELECT/line#4/h1.00/f4), then read and parse its
    // lsqca-jobcache-v1 document. The cache holds the real entries of
    // fig14's first 21 jobs (shard 0/85), stored under --out by runSpec.
    {
        const api::SweepSpec fig14 = api::specs::fig14();
        api::BenchmarkRegistry registry = api::BenchmarkRegistry::paper();
        const std::vector<api::ExpandedJob> fig14Jobs =
            api::expandSpec(fig14, registry);
        const api::ExpandedJob &job = fig14Jobs.back();
        // The fingerprints runSpec takes with a job cache attached:
        // every one of fig14's 1,785 jobs, in ns per job.
        record("api/jobFingerprints/fig14",
               bestPerCall(bankReps,
                           [&] {
                               doNotOptimize(static_cast<std::int64_t>(
                                   api::jobFingerprints(fig14, fig14Jobs,
                                                        false)
                                       .size()));
                           }),
               "job", static_cast<std::int64_t>(fig14Jobs.size()),
               "ns_per_job");
        record("json/dump/job-manifest",
               bestPerCall(bankReps,
                           [&] {
                               doNotOptimize(static_cast<std::int64_t>(
                                   api::jobManifest(fig14, job, false)
                                       .dump(0)
                                       .size()));
                           }),
               "manifest", 1, "ns_per_manifest");

        const std::string dir = args.outDir + "/jobcache_bench";
        std::filesystem::remove_all(dir);
        const service::ResultCache cache(dir);
        service::JobCacheAdapter adapter(cache);
        api::RunSpecOptions options;
        options.threads = 1;
        options.writeJson = false;
        options.jobCache = &adapter;
        options.shard = {0, 85};
        const api::SpecRun run = api::runSpec(fig14, registry, options);
        const std::vector<std::string> prints =
            api::jobFingerprints(fig14, run.expanded, false);
        const std::string text = fsutil::readFile(cache.jobPathFor(prints[0]));
        record("json/parse/jobcache-entry",
               bestPerCall(bankReps,
                           [&] {
                               doNotOptimize(static_cast<std::int64_t>(
                                   Json::parse(text).size()));
                           }),
               "document", 1, "ns_per_parse");
        record("cache/fetchJob/hit",
               bestPerCall(bankReps,
                           [&] {
                               std::int64_t sink = 0;
                               for (const std::string &print : prints)
                                   sink += static_cast<std::int64_t>(
                                       cache.fetchJob(print).size());
                               doNotOptimize(sink);
                           }),
               "fetch", static_cast<std::int64_t>(prints.size()),
               "ns_per_fetchJob");
        std::filesystem::remove_all(dir);
    }

    // ---- report ---------------------------------------------------------
    TextTable table({"kernel", "best wall (s)", "ns/unit", "unit"});
    Json jentries = Json::array();
    for (const auto &entry : entries) {
        table.addRow({entry.name, TextTable::num(entry.seconds, 6),
                      TextTable::num(entry.perUnitNs, 2), entry.unit});
        Json metrics = Json::object();
        metrics.set("wall_seconds", entry.seconds);
        metrics.set(entry.metricKey, entry.perUnitNs);
        metrics.set("units", entry.units);
        Json jentry = Json::object();
        jentry.set("name", entry.name);
        jentry.set("metrics", std::move(metrics));
        jentries.push(std::move(jentry));
    }
    bench::emit(table,
                std::string("Micro kernels (") +
                    (args.smoke ? "smoke" : "full") + " mode)",
                args, "micro_kernels");

    Json doc = Json::object();
    doc.set("bench", "micro");
    doc.set("schema", "lsqca-bench-v1");
    doc.set("mode", args.smoke ? "smoke" : "full");
    doc.set("entries", std::move(jentries));
    const std::string path = writeBenchJson("micro", doc, args.outDir);
    std::cerr << "micro: " << entries.size() << " kernels -> " << path
              << "\n";
    return 0;
}
