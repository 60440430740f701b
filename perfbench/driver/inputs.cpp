#include "inputs.h"

#include <cstdio>
#include <filesystem>
#include <random>

#include "api/paper_specs.h"
#include "arch/config.h"
#include "common/error.h"
#include "common/fs.h"

namespace perfbench {

using lsqca::Json;
using lsqca::api::AxisValue;
using lsqca::api::SweepSpec;
namespace specs = lsqca::api::specs;

namespace {

/** The workloads run.py may name. The "campaign" inputs are not one:
 *  they feed only the traced run's service layers. */
const char *const kWorkloadNames[] = {"figures", "select_full"};

/** Fisher-Yates over every non-benchmark axis: the only effect the
 *  seed and variant have on the sweeps themselves. */
SweepSpec
permuted(SweepSpec spec, std::mt19937_64 &rng)
{
    for (lsqca::api::SweepAxis &axis : spec.axes) {
        if (axis.label == "benchmark")
            continue;
        for (std::size_t i = axis.values.size(); i > 1; --i)
            std::swap(axis.values[i - 1], axis.values[rng() % i]);
    }
    return spec;
}

std::int64_t
jobsPerMachine(const SweepSpec &spec)
{
    std::int64_t jobs = 1;
    for (const lsqca::api::SweepAxis &axis : spec.axes)
        if (axis.label != "machine")
            jobs *= static_cast<std::int64_t>(axis.values.size());
    return jobs;
}

std::string
writeSpec(const std::string &dir, const std::string &file,
          const SweepSpec &spec)
{
    const std::string path = dir + "/" + file + ".json";
    lsqca::fsutil::writeFileAtomic(path, spec.toJson().dump(2) + "\n");
    return path;
}

WorkloadInputs
makeWorkload(const std::string &dir, const std::string &name,
             const std::vector<SweepSpec> &cold, double fraction)
{
    WorkloadInputs inputs;
    inputs.workload = name;
    for (const SweepSpec &spec : cold)
        inputs.specs.push_back(
            writeSpec(dir, name + "." + spec.name, spec));
    inputs.incrementalSpec =
        writeSpec(dir, name + ".incremental",
                  withExtraMachine(cold.back(), fraction));
    inputs.incrementalJobs = jobsPerMachine(cold.back());
    inputs.extraMachine = extraMachineName(fraction);
    return inputs;
}

} // namespace

const WorkloadInputs &
Inputs::workload(const std::string &name) const
{
    for (const WorkloadInputs &inputs : workloads)
        if (inputs.workload == name)
            return inputs;
    throw lsqca::ConfigError("unknown workload \"" + name + "\"");
}

bool
isWorkload(const std::string &name)
{
    for (const char *known : kWorkloadNames)
        if (name == known)
            return true;
    return false;
}

std::string
extraMachineName(double fraction)
{
    char text[32];
    std::snprintf(text, sizeof text, "line#4/x%.3f", fraction);
    return text;
}

SweepSpec
withExtraMachine(SweepSpec spec, double fraction)
{
    for (lsqca::api::SweepAxis &axis : spec.axes) {
        if (axis.label != "machine")
            continue;
        AxisValue value;
        value.name = extraMachineName(fraction);
        value.arch = Json::object()
                         .set("sam", lsqca::samKindName(lsqca::SamKind::Line))
                         .set("banks", 4)
                         .set("hybrid_fraction", fraction);
        axis.values.push_back(std::move(value));
        return spec;
    }
    throw lsqca::ConfigError("spec \"" + spec.name + "\" has no machine axis");
}

Inputs
generateInputs(std::uint64_t seed, std::uint32_t variant,
               const std::string &dir)
{
    std::filesystem::create_directories(dir);
    std::seed_seq sequence{static_cast<std::uint32_t>(seed),
                           static_cast<std::uint32_t>(seed >> 32), variant};
    std::mt19937_64 rng(sequence);
    Inputs inputs;
    inputs.seed = seed;

    const SweepSpec fig13 = permuted(specs::fig13(), rng);
    const SweepSpec fig15 = permuted(specs::fig15(), rng);
    const SweepSpec ablation = permuted(specs::ablation(), rng);
    const SweepSpec fig14 = permuted(specs::fig14(), rng);
    const SweepSpec fig15Full = permuted(specs::fig15(true), rng);
    const SweepSpec fig14Full = permuted(specs::fig14(true), rng);
    inputs.extraFraction =
        kExtraFractions[rng() % std::size(kExtraFractions)];

    // fig14 goes last in `figures` so its incremental leg adds the
    // machine point to the sweep that owns the hybrid-fraction axis.
    inputs.workloads.push_back(makeWorkload(
        dir, "figures", {fig13, fig15, ablation, fig14},
        inputs.extraFraction));
    inputs.workloads.push_back(makeWorkload(dir, "select_full", {fig15Full},
                                            inputs.extraFraction));
    inputs.workloads.push_back(
        makeWorkload(dir, "campaign", {fig14}, inputs.extraFraction));
    inputs.estimatePrefix = inputs.workload("figures").specs.back();
    inputs.estimateFull = writeSpec(dir, "estimate.fig14_full", fig14Full);

    Json doc = Json::object();
    doc.set("seed", static_cast<std::int64_t>(seed));
    doc.set("extra_fraction", inputs.extraFraction);
    Json workloads = Json::array();
    for (const WorkloadInputs &w : inputs.workloads) {
        Json specList = Json::array();
        for (const std::string &path : w.specs)
            specList.push(path);
        workloads.push(Json::object()
                           .set("name", w.workload)
                           .set("specs", std::move(specList))
                           .set("incremental", w.incrementalSpec)
                           .set("incremental_jobs", w.incrementalJobs)
                           .set("extra_machine", w.extraMachine));
    }
    doc.set("workloads", std::move(workloads));
    doc.set("estimate_prefix", inputs.estimatePrefix);
    doc.set("estimate_full", inputs.estimateFull);
    lsqca::fsutil::writeFileAtomic(dir + "/inputs.json", doc.dump(2) + "\n");
    return inputs;
}

Inputs
loadInputs(const std::string &dir)
{
    const Json doc = Json::load(dir + "/inputs.json");
    Inputs inputs;
    inputs.seed = static_cast<std::uint64_t>(doc.at("seed").asInt());
    inputs.extraFraction = doc.at("extra_fraction").asDouble();
    for (const Json &w : doc.at("workloads").items()) {
        WorkloadInputs entry;
        entry.workload = w.at("name").asString();
        for (const Json &path : w.at("specs").items())
            entry.specs.push_back(path.asString());
        entry.incrementalSpec = w.at("incremental").asString();
        entry.incrementalJobs = w.at("incremental_jobs").asInt();
        entry.extraMachine = w.at("extra_machine").asString();
        inputs.workloads.push_back(std::move(entry));
    }
    inputs.estimatePrefix = doc.at("estimate_prefix").asString();
    inputs.estimateFull = doc.at("estimate_full").asString();
    return inputs;
}

} // namespace perfbench
