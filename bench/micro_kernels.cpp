/**
 * @file
 * Chrono-based microbenchmarks for the hot paths this repo's perf work
 * tracks: whole simulate() calls per machine kind (plus lockstep lanes,
 * and the per-job Machine setup in front of each), the program build in
 * front of a sweep, and the statevector amplitude kernels. Emits
 * BENCH_micro.json so successive runs are machine-comparable
 * (tools/bench_diff.py fails CI on >10% regressions).
 *
 * Usage:
 *   micro_kernels [--smoke] [--out <dir>] [--csv <dir>]
 *
 * --smoke shrinks sizes/reps for CI; timings stay comparable between
 * two smoke runs (or two full runs), not across modes.
 */

#include <chrono>
#include <cstdint>
#include <numeric>

#include "arch/line_sam.h"
#include "arch/point_sam.h"
#include "bench_util.h"
#include "circuit/lowering.h"
#include "circuit/statevector.h"
#include "common/fs.h"
#include "common/json.h"
#include "geom/grid.h"
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
    const int svReps = args.smoke ? 3 : 7;
    const std::int32_t adderBits = args.smoke ? 16 : 64;
    const std::int32_t svQubits = args.smoke ? 14 : 20;

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
               bestOf(bankReps,
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
               bestOf(bankReps,
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

    // ---- statevector kernels -------------------------------------------
    const auto amps = std::int64_t{1} << svQubits;
    {
        StateVector sv(svQubits);
        for (std::int32_t q = 0; q < svQubits; ++q)
            sv.applyH(q); // dense superposition
        record("statevector/apply1-H",
               bestOf(svReps, [&] { sv.applyH(svQubits / 2); }),
               "amplitude", amps);
        record("statevector/probabilityOne",
               bestOf(svReps,
                      [&] { (void)sv.probabilityOne(svQubits / 2); }),
               "amplitude", amps / 2);
        record("statevector/applyCX",
               bestOf(svReps, [&] { sv.applyCX(0, svQubits - 1); }),
               "amplitude", amps / 4);
        record("statevector/applyCCX",
               bestOf(svReps,
                      [&] { sv.applyCCX(0, 1, svQubits - 1); }),
               "amplitude", amps / 8);
        record("statevector/norm",
               bestOf(svReps, [&] { (void)sv.norm(); }), "amplitude",
               amps);
    }
    {
        record("statevector/measureZ+collapse",
               bestOf(svReps,
                      [&] {
                          StateVector sv(svQubits);
                          for (std::int32_t q = 0; q < svQubits; ++q)
                              sv.applyH(q);
                          (void)sv.measureZ(0);
                      }),
               "amplitude", amps);
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
