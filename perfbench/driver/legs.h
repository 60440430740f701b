#ifndef PERFBENCH_LEGS_H
#define PERFBENCH_LEGS_H

/**
 * @file
 * The timed legs of one benchmark pass, each a call a user makes:
 *
 *  - sweep cold: `api::runSpec` per spec with a fresh registry, then
 *    the BENCH write (what `lsqca run <spec>` does);
 *  - sweep cached: the same with a job cache attached (`lsqca run
 *    --job-cache DIR`), used for the resubmit and incremental legs;
 *  - campaign (traced run only): `service::Orchestrator::submit` cold,
 *    resubmitted against the warm cache, and with one added machine
 *    point under a different shard count.
 *
 * Every leg checks its outputs against the committed reference.
 */

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "api/spec.h"
#include "inputs.h"
#include "reference.h"
#include "service/scheduler.h"

namespace perfbench {

/** User+system CPU seconds of this process and its waited children. */
double cpuSeconds();

/** Peak resident set of this process or its largest child, in MB. */
double peakRssMb();

double median(std::vector<double> values);

/**
 * Run @p leg once on each CPU this process may use, pinned to that
 * CPU, and return every result; the original affinity is restored
 * afterwards. The vCPUs of a shared host can differ in speed
 * by a third, so a single-threaded leg timed only where the scheduler
 * happens to put it is a lottery. Threads the leg starts inherit the
 * pin, so this is for single-threaded legs only.
 */
std::vector<double> onEveryCpu(const std::function<double()> &leg);

/** Shared settings of every leg. */
struct LegContext
{
    std::int32_t threads = 1;
    /** Where BENCH documents and campaign state land. */
    std::string workDir;
    /** The `lsqca` worker binary campaigns spawn. */
    std::string workerExe;
    const Reference *reference = nullptr;
    Check *check = nullptr;
};

struct ColdLeg
{
    double wall = 0.0;
    /** Wall outside the sweep engine before the BENCH write. */
    double setup = 0.0;
    double cpu = 0.0;
    std::int64_t instructions = 0;
};

/** Cold leg of a sweep workload over @p specs. */
ColdLeg sweepCold(const std::vector<std::string> &specs,
                  const LegContext &context);

/**
 * Run @p specs against the job cache in @p cacheDir and return the
 * wall time. @p expectComputed jobs must be simulated, the rest
 * spliced; any other split is a failed operation.
 */
double sweepCached(const std::vector<std::string> &specs,
                   const std::string &cacheDir,
                   std::int64_t expectComputed, const LegContext &context);

/**
 * The files under a cache directory. restore() deletes every file
 * added since, so a leg that fills the cache can be repeated from the
 * same state.
 */
class CacheSnapshot
{
  public:
    explicit CacheSnapshot(std::string dir);
    void restore() const;

  private:
    std::string dir_;
    std::set<std::string> files_;
};

/** One campaign leg's outcome. */
struct CampaignLeg
{
    std::string stateDir;
    lsqca::service::CampaignReport report;
};

/**
 * Submit @p specPath as a fresh campaign in `<workDir>/<name>` against
 * the cache in @p cacheDir; @p shards = 0 picks the default count.
 * Checks the merged BENCH document and the worker attempts.
 */
CampaignLeg submitCampaign(const std::string &name,
                           const std::string &specPath,
                           const std::string &cacheDir, std::int32_t shards,
                           const LegContext &context);

/** The campaign legs the traced run reads its service layers from. */
struct CampaignPass
{
    CampaignLeg cold;
    /** Reads the cold leg's cache into a fresh state dir. */
    CampaignLeg resubmit;
    CampaignLeg incremental;
    std::string cacheDir;
};

CampaignPass runCampaign(const WorkloadInputs &inputs,
                         const LegContext &context);

} // namespace perfbench

#endif // PERFBENCH_LEGS_H
