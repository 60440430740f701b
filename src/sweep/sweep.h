#ifndef LSQCA_SWEEP_SWEEP_H
#define LSQCA_SWEEP_SWEEP_H

/**
 * @file
 * Parallel configuration-sweep engine.
 *
 * The paper's headline figures sweep many (program, architecture)
 * points; each simulate() call is independent, so the engine fans a job
 * vector across its own worker threads and collects results *in
 * submission order* — a parallel sweep is bit-identical to the serial
 * loop it replaces, regardless of worker count.
 *
 * Point- and line-SAM jobs over one program that differ only in
 * magic-state supply (the paper's 1/2/4-factory points) form one work
 * item and run as lanes of one bank walk (simulateLanes(),
 * sharesBankWalk()): each instruction is costed against the banks
 * once, and only its timing runs per lane. Conventional jobs have no
 * banks and run alone. The line-SAM row-parallel window is the one
 * bank decision that reads timing, so it is the lane vote: a lane that
 * disagrees with the group's first lane is re-simulated alone, and
 * every result stays exactly simulate()'s.
 * Observed, trace, breakdown and sampled jobs never group, and a group
 * that alone would outlast an even share of the sweep runs as
 * separate jobs. Work items start largest first. A JSON report
 * (`bench/out/BENCH_<name>.json`) records per-job metrics plus
 * wall-clock so regressions are machine-checkable (tools/bench_diff.py).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "isa/program.h"
#include "sim/simulator.h"

namespace lsqca {

/** One sweep point: a program run under one machine configuration. */
struct SweepJob
{
    /** Stable identifier, e.g. "adder/point#1/f2" (JSON entry key). */
    std::string name;
    /** Borrowed; must outlive the SweepEngine::run call. */
    const Program *program = nullptr;
    SimOptions options;
};

/** Outcome of a sweep: results aligned with the submitted job vector. */
struct SweepReport
{
    std::vector<SimResult> results;  ///< submission order
    std::vector<double> jobSeconds;  ///< per-job share of group wall
    double wallSeconds = 0.0;        ///< whole-sweep wall time
    std::int32_t threads = 1;        ///< configured worker count
};

/** Engine options. */
struct SweepOptions
{
    /** Worker threads; 0 = hardware_concurrency. */
    std::int32_t threads = 0;
    /**
     * Optional observability registry (must outlive the run call).
     * When attached, each run() accounts `sweep.jobs`, `sweep.groups`,
     * `sweep.job_wall_seconds`, `sweep.queue_wait_seconds`,
     * per-worker `sweep.worker.<w>.busy_seconds` gauges, and
     * `sweep.wall_seconds` (docs/METRICS.md). Detached (the default),
     * the engine takes no extra clock reads and results — and BENCH
     * bytes — are exactly those of an uninstrumented run.
     */
    metrics::Registry *metrics = nullptr;
};

/** Fans simulate() jobs across worker threads. */
class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions options = {});

    /**
     * Run every job and return results in submission order. Starts
     * min(threads, groups) threads, or runs on the calling thread when
     * that is at most one. A throwing job stops its worker; once every
     * worker has joined, the first worker's exception (in worker
     * order) is rethrown. A job's jobSeconds is its group's wall time
     * divided by the group's size.
     */
    SweepReport run(const std::vector<SweepJob> &jobs) const;

    std::int32_t threads() const { return threads_; }

  private:
    std::int32_t threads_;
    metrics::Registry *metrics_;
};

/**
 * Build the standard BENCH JSON document for a sweep: one entry per
 * job with cpi / exec_beats / memory_beats / magic_stall_beats /
 * density / wall_seconds metrics. Jobs that collected structured
 * breakdowns (SimOptions::recordBreakdown) add a per-entry
 * "breakdown" array and promote the schema to lsqca-bench-v2; plain
 * sweeps emit byte-identical lsqca-bench-v1 (docs/OBSERVERS.md).
 *
 * @p breakdownSchema forces the v2 schema even when no entry carries
 * a breakdown: a sharded breakdown sweep must stamp v2 on its *empty*
 * shards too, or the shard set would mix schemas and refuse to merge
 * (runSpec passes the spec's record_breakdown flag).
 */
Json benchReport(const std::string &benchName,
                 const std::vector<SweepJob> &jobs,
                 const SweepReport &report,
                 bool breakdownSchema = false);

/**
 * Build ONE BENCH entry — `{name, metrics{...}, [breakdown]}` — for a
 * simulated job. This is the unit the job-granularity result cache
 * stores and splices: benchReport() is defined as benchDocument() over
 * benchEntry() per job, so a document assembled from cached entries is
 * byte-identical to one built from a fresh simulation (the Json layer
 * guarantees dump(parse(dump(x))) == dump(x)).
 */
Json benchEntry(const std::string &name, const SimResult &result,
                double jobSeconds);

/**
 * Assemble the standard BENCH document from pre-built entries (fresh
 * from benchEntry() or spliced back out of the job cache). @p v2
 * stamps the lsqca-bench-v2 schema; callers sniff cached entries for
 * a "breakdown" key the same way benchReport() sniffs SimResults.
 */
Json benchDocument(const std::string &benchName, Json entries,
                   std::int32_t threads, double wallSeconds, bool v2);

/**
 * Write @p doc to `<outDir>/BENCH_<benchName>.json` and return the
 * path. @p outDir defaults to "bench/out" under the current directory.
 */
std::string writeBenchJson(const std::string &benchName, const Json &doc,
                           const std::string &outDir = "bench/out");

} // namespace lsqca

#endif // LSQCA_SWEEP_SWEEP_H
