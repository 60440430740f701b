#include "sweep/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <thread>
#include <unordered_map>

#include "api/serialize.h"
#include "common/error.h"

namespace lsqca {
namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Hash of the job's program and of options fields sharesBankWalk()
 * compares, so jobs that can share a walk always share a bucket.
 */
std::size_t
bucketOf(const SweepJob &job)
{
    const SimOptions &o = job.options;
    std::size_t h = std::hash<const Program *>{}(job.program);
    for (const std::size_t part :
         {std::hash<int>{}(static_cast<int>(o.arch.sam)),
          std::hash<std::int32_t>{}(o.arch.banks),
          std::hash<double>{}(o.arch.hybridFraction),
          std::hash<std::int64_t>{}(o.maxInstructions)})
        h = h * 1000003u ^ part;
    return h;
}

/** Jobs over one program that share a bank walk (sharesBankWalk),
 *  each group in submission order, so its first submitted job is
 *  lane 0, whose row-parallel votes drive the walk. */
std::vector<std::vector<std::size_t>>
laneGroups(const std::vector<SweepJob> &jobs)
{
    std::vector<std::vector<std::size_t>> groups;
    std::unordered_map<std::size_t, std::vector<std::size_t>> buckets;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::vector<std::size_t> &bucket = buckets[bucketOf(jobs[i])];
        const auto joins = [&](std::size_t g) {
            const SweepJob &lead = jobs[groups[g].front()];
            return lead.program == jobs[i].program &&
                   sharesBankWalk(lead.options, jobs[i].options);
        };
        const auto g = std::find_if(bucket.begin(), bucket.end(), joins);
        if (g != bucket.end()) {
            groups[*g].push_back(i);
        } else {
            bucket.push_back(groups.size());
            groups.push_back({i});
        }
    }
    return groups;
}

/** A job's scheduling weight: the instructions it simulates. */
std::int64_t
instructions(const SweepJob &job)
{
    const std::int64_t size = job.program->size();
    const std::int64_t limit = job.options.maxInstructions;
    return limit > 0 ? std::min(size, limit) : size;
}

/**
 * The sweep's work items: the lane groups, each run by one
 * simulateLanes() call on one worker. A group that alone would hold
 * its worker longer than an even share of the sweep (its instructions
 * times @p workers above the sweep's total) runs as separate jobs
 * instead: sharing its walk would save work but lengthen the sweep.
 * Items run largest first (ties in submission order), so a long one
 * never starts last.
 */
std::vector<std::vector<std::size_t>>
workItems(const std::vector<SweepJob> &jobs, std::size_t workers)
{
    std::int64_t total = 0;
    for (const SweepJob &job : jobs)
        total += instructions(job);
    std::vector<std::pair<std::int64_t, std::vector<std::size_t>>> items;
    for (std::vector<std::size_t> &group : laneGroups(jobs)) {
        std::int64_t weight = 0;
        for (const std::size_t i : group)
            weight += instructions(jobs[i]);
        if (group.size() > 1 &&
            weight * static_cast<std::int64_t>(workers) > total) {
            for (const std::size_t i : group)
                items.push_back({instructions(jobs[i]), {i}});
        } else {
            items.push_back({weight, std::move(group)});
        }
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    std::vector<std::vector<std::size_t>> ordered;
    ordered.reserve(items.size());
    for (auto &item : items)
        ordered.push_back(std::move(item.second));
    return ordered;
}

} // namespace

SweepEngine::SweepEngine(SweepOptions options)
    : threads_(options.threads > 0
                   ? options.threads
                   : static_cast<std::int32_t>(std::max(
                         1u, std::thread::hardware_concurrency()))),
      metrics_(options.metrics)
{
}

SweepReport
SweepEngine::run(const std::vector<SweepJob> &jobs) const
{
    const auto t0 = std::chrono::steady_clock::now();
    SweepReport report;
    report.threads = threads_;
    report.results.resize(jobs.size());
    report.jobSeconds.assign(jobs.size(), 0.0);
    for (const auto &job : jobs)
        LSQCA_REQUIRE(job.program != nullptr,
                      "sweep job '" + job.name + "' has no program");

    const std::vector<std::vector<std::size_t>> groups =
        workItems(jobs, static_cast<std::size_t>(threads_));

    // Instrument lookups happen once, here; per-job updates are
    // relaxed atomics (common/metrics.h). All null when detached.
    metrics::Counter *jobsDone =
        metrics_ ? &metrics_->counter("sweep.jobs") : nullptr;
    metrics::Counter *groupsDone =
        metrics_ ? &metrics_->counter("sweep.groups") : nullptr;
    metrics::Histogram *jobWall =
        metrics_ ? &metrics_->histogram("sweep.job_wall_seconds")
                 : nullptr;
    metrics::Histogram *queueWait =
        metrics_ ? &metrics_->histogram("sweep.queue_wait_seconds")
                 : nullptr;

    // Workers pull the next group index from a shared counter: cheap
    // dynamic load balancing (job costs vary by orders of magnitude)
    // while each result lands in its submission slot, keeping the
    // output order — and therefore every downstream table — identical
    // to the serial loop.
    std::atomic<std::size_t> next{0};
    const auto drain = [&](std::size_t w) {
        double busy = 0.0;
        std::vector<SimOptions> lanes;
        for (;;) {
            const std::size_t index =
                next.fetch_add(1, std::memory_order_relaxed);
            if (index >= groups.size())
                break;
            const std::vector<std::size_t> &group = groups[index];
            // A job's queue wait is the sweep time that passed before
            // its worker picked it up, net of that worker's own busy
            // time — the load-imbalance signal `lsqca report`-style
            // tooling reads. Every job of a group shares its wait.
            if (queueWait != nullptr) {
                const double wait = std::max(0.0, secondsSince(t0) - busy);
                for (std::size_t k = 0; k < group.size(); ++k)
                    queueWait->observe(wait);
            }
            const auto j0 = std::chrono::steady_clock::now();
            lanes.clear();
            for (const std::size_t i : group)
                lanes.push_back(jobs[i].options);
            LaneResults run =
                simulateLanes(*jobs[group.front()].program, lanes);
            // Lanes share one walk, so each job is charged an equal
            // share of the group's wall time.
            const double share =
                secondsSince(j0) / static_cast<double>(group.size());
            for (std::size_t k = 0; k < group.size(); ++k) {
                report.results[group[k]] = std::move(run.results[k]);
                report.jobSeconds[group[k]] = share;
                busy += share;
            }
            if (jobsDone != nullptr) {
                jobsDone->add(static_cast<std::int64_t>(group.size()));
                for (std::size_t k = 0; k < group.size(); ++k)
                    jobWall->observe(share);
                groupsDone->add();
            }
        }
        if (metrics_ != nullptr)
            metrics_
                ->gauge("sweep.worker." + std::to_string(w + 1) +
                        ".busy_seconds")
                .set(busy);
    };

    const std::size_t workers =
        std::min(static_cast<std::size_t>(threads_), groups.size());
    if (workers <= 1) {
        drain(0);
    } else {
        // An exception escaping a thread would terminate the process,
        // so each worker parks its first one; a failed worker stops
        // pulling jobs while the others drain the rest. jthread joins
        // on scope exit, also when a later thread fails to start.
        std::vector<std::exception_ptr> failures(workers);
        {
            std::vector<std::jthread> threads;
            threads.reserve(workers);
            for (std::size_t w = 0; w < workers; ++w)
                threads.emplace_back([&, w] {
                    try {
                        drain(w);
                    } catch (...) {
                        failures[w] = std::current_exception();
                    }
                });
        }
        for (const std::exception_ptr &failure : failures)
            if (failure)
                std::rethrow_exception(failure);
    }
    report.wallSeconds = secondsSince(t0);
    if (metrics_ != nullptr)
        metrics_->gauge("sweep.wall_seconds").set(report.wallSeconds);
    return report;
}

Json
benchReport(const std::string &benchName,
            const std::vector<SweepJob> &jobs, const SweepReport &report,
            bool breakdownSchema)
{
    LSQCA_REQUIRE(jobs.size() == report.results.size(),
                  "job/result arity mismatch");
    // Jobs that collected structured breakdowns promote the document
    // to lsqca-bench-v2; plain sweeps keep emitting byte-identical v1.
    // The caller's flag wins over content sniffing so empty shards of
    // a breakdown sweep stamp v2 as well (see the header).
    bool v2 = breakdownSchema;
    for (const SimResult &r : report.results)
        v2 = v2 || !r.breakdown.empty();
    Json entries = Json::array();
    for (std::size_t i = 0; i < jobs.size(); ++i)
        entries.push(benchEntry(jobs[i].name, report.results[i],
                                report.jobSeconds[i]));
    return benchDocument(benchName, std::move(entries), report.threads,
                         report.wallSeconds, v2);
}

Json
benchEntry(const std::string &name, const SimResult &r, double jobSeconds)
{
    Json metrics = Json::object();
    metrics.set("cpi", r.cpi);
    metrics.set("exec_beats", r.execBeats);
    metrics.set("memory_beats", r.memoryBeats);
    metrics.set("magic_stall_beats", r.magicStallBeats);
    metrics.set("density", r.density());
    metrics.set("wall_seconds", jobSeconds);
    // Sampled-estimator statistics, only on entries that really
    // are estimates: a sampled run that degenerated to full
    // coverage (period=1, short program) stays byte-identical to
    // exact output. docs/SAMPLING.md documents the keys.
    if (r.estimated) {
        metrics.set("cpi_ci95", r.cpiCi95);
        metrics.set("sampling_error", r.samplingError);
        metrics.set("sampled_units", r.sampledUnits);
    }
    Json entry = Json::object();
    entry.set("name", name);
    entry.set("metrics", std::move(metrics));
    if (!r.breakdown.empty())
        entry.set("breakdown", api::toJson(r.breakdown));
    return entry;
}

Json
benchDocument(const std::string &benchName, Json entries,
              std::int32_t threads, double wallSeconds, bool v2)
{
    Json doc = Json::object();
    doc.set("bench", benchName);
    doc.set("schema", v2 ? "lsqca-bench-v2" : "lsqca-bench-v1");
    doc.set("threads", threads);
    doc.set("jobs", static_cast<std::int64_t>(entries.size()));
    doc.set("wall_seconds", wallSeconds);
    doc.set("entries", std::move(entries));
    return doc;
}

std::string
writeBenchJson(const std::string &benchName, const Json &doc,
               const std::string &outDir)
{
    const std::string path = outDir + "/BENCH_" + benchName + ".json";
    doc.write(path);
    return path;
}

} // namespace lsqca
