#include "api/spec.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "api/json_reader.h"
#include "api/serialize.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/table.h"

namespace lsqca::api {
namespace {

constexpr const char *kSpecSchemaV1 = "lsqca-spec-v1";
constexpr const char *kSpecSchemaV2 = "lsqca-spec-v2";
constexpr const char *kBenchSchemaV1 = "lsqca-bench-v1";
constexpr const char *kBenchSchemaV2 = "lsqca-bench-v2";

/** BENCH schema a spec's sweeps will emit (v2 carries breakdowns). */
const char *
benchSchemaFor(const SweepSpec &spec)
{
    return spec.recordBreakdown ? kBenchSchemaV2 : kBenchSchemaV1;
}

/** Validate and return a BENCH document's schema string (v1 or v2). */
std::string
benchSchemaOf(const Json &doc)
{
    const Json &schema = doc.at("schema");
    LSQCA_REQUIRE(schema.isString() &&
                      (schema.asString() == kBenchSchemaV1 ||
                       schema.asString() == kBenchSchemaV2),
                  std::string("BENCH schema must be \"") +
                      kBenchSchemaV1 + "\" or \"" + kBenchSchemaV2 +
                      "\"");
    return schema.asString();
}

AxisValue
axisValueFromJson(const Json &doc, const std::string &axisLabel)
{
    AxisValue value;
    if (doc.isNumber()) {
        // Scalar grid shorthand: the axis label names an integer
        // ArchConfig field ({"axis": "factories", "values": [1, 2, 4]}).
        LSQCA_REQUIRE(doc.isInt(),
                      "axis \"" + axisLabel +
                          "\": scalar shorthand values must be "
                          "integers; use explicit objects otherwise");
        value.scalar = doc;
        value.arch = Json::object().set(axisLabel, doc);
        value.name = std::to_string(doc.asInt());
        return value;
    }
    ObjectReader reader(doc, "axis \"" + axisLabel + "\" value");
    reader.readString("name", value.name);
    reader.readString("bench", value.bench);
    if (const Json *params = reader.find("params")) {
        LSQCA_REQUIRE(params->isObject(),
                      "axis value params must be an object");
        value.params = *params;
    }
    std::int64_t prefix = -1;
    reader.readInt64("prefix", prefix, 0,
                     std::numeric_limits<std::int64_t>::max());
    if (prefix >= 0)
        value.prefix = prefix;
    if (const Json *arch = reader.find("arch")) {
        LSQCA_REQUIRE(arch->isObject(),
                      "axis value arch must be an object");
        value.arch = *arch;
    }
    if (const Json *translate = reader.find("translate")) {
        LSQCA_REQUIRE(translate->isObject(),
                      "axis value translate must be an object");
        value.translate = *translate;
    }
    reader.finish();
    return value;
}

Json
axisValueToJson(const AxisValue &value)
{
    if (!value.scalar.isNull())
        return value.scalar;
    Json doc = Json::object();
    if (!value.name.empty())
        doc.set("name", value.name);
    if (!value.bench.empty())
        doc.set("bench", value.bench);
    if (!value.params.isNull())
        doc.set("params", value.params);
    if (value.prefix)
        doc.set("prefix", *value.prefix);
    if (!value.arch.isNull())
        doc.set("arch", value.arch);
    if (!value.translate.isNull())
        doc.set("translate", value.translate);
    return doc;
}

/**
 * Replace a "hybrid_fraction": "hot" placeholder with the benchmark's
 * hot-set fraction; other patches pass through untouched.
 */
Json
resolveHotFraction(const Json &patch, const BenchmarkRegistry &registry,
                   const std::string &bench, const Json &params)
{
    const Json *hybrid = patch.find("hybrid_fraction");
    if (hybrid == nullptr || !hybrid->isString())
        return patch;
    LSQCA_REQUIRE(hybrid->asString() == "hot",
                  "arch.hybrid_fraction must be a number or \"hot\"");
    Json resolved = Json::object();
    for (const auto &member : patch.members()) {
        if (member.first == "hybrid_fraction")
            resolved.set(member.first,
                         registry.hotFraction(bench, params));
        else
            resolved.set(member.first, member.second);
    }
    return resolved;
}

/** Fragment an axis value contributes to the job name. */
std::string
valueFragment(const AxisValue &value, const Json &resolvedArch)
{
    if (!value.name.empty())
        return value.name;
    if (!value.bench.empty())
        return value.bench;
    if (!resolvedArch.isNull()) {
        ArchConfig cfg;
        applyArchPatch(cfg, resolvedArch);
        return cfg.label();
    }
    return "";
}

std::string
renderName(const std::string &nameTemplate,
           const std::vector<SweepAxis> &axes,
           const std::vector<std::string> &fragments,
           const ArchConfig &cfg)
{
    if (nameTemplate.empty()) {
        std::string name;
        for (const std::string &fragment : fragments) {
            if (fragment.empty())
                continue;
            if (!name.empty())
                name += '/';
            name += fragment;
        }
        return name;
    }
    std::string name;
    for (std::size_t i = 0; i < nameTemplate.size();) {
        const char c = nameTemplate[i];
        if (c != '{') {
            name += c;
            ++i;
            continue;
        }
        const std::size_t close = nameTemplate.find('}', i);
        LSQCA_REQUIRE(close != std::string::npos,
                      "unclosed '{' in name template \"" +
                          nameTemplate + "\"");
        const std::string placeholder =
            nameTemplate.substr(i + 1, close - i - 1);
        if (placeholder == "arch") {
            // Only here: label() formats through a stream, and most
            // templates never ask for it.
            name += cfg.label();
        } else {
            bool found = false;
            for (std::size_t a = 0; a < axes.size(); ++a) {
                if (axes[a].label == placeholder) {
                    name += fragments[a];
                    found = true;
                    break;
                }
            }
            LSQCA_REQUIRE(found, "name template placeholder \"{" +
                                     placeholder +
                                     "}\" names no axis (and is not "
                                     "\"arch\")");
        }
        i = close + 1;
    }
    return name;
}

} // namespace

SweepSpec
SweepSpec::fromJson(const Json &doc)
{
    SweepSpec spec;
    ObjectReader reader(doc, "spec");
    const Json &schema = reader.require("schema");
    LSQCA_REQUIRE(schema.isString() &&
                      (schema.asString() == kSpecSchemaV1 ||
                       schema.asString() == kSpecSchemaV2),
                  std::string("spec.schema must be \"") + kSpecSchemaV1 +
                      "\" or \"" + kSpecSchemaV2 + "\"");
    const bool v2 = schema.asString() == kSpecSchemaV2;
    reader.readString("name", spec.name);
    LSQCA_REQUIRE(!spec.name.empty(), "spec.name must be set");
    reader.readString("name_template", spec.nameTemplate);
    if (const Json *base = reader.find("arch_base")) {
        LSQCA_REQUIRE(base->isObject(),
                      "spec.arch_base must be an object");
        spec.archBase = *base;
    }
    reader.readBool("record_breakdown", spec.recordBreakdown);
    if (const Json *estimator = reader.find("estimator")) {
        LSQCA_REQUIRE(v2, "spec.estimator requires schema \"" +
                              std::string(kSpecSchemaV2) + "\"");
        spec.estimator = estimatorOptionsFromJson(*estimator);
    }
    const Json &axes = reader.require("axes");
    LSQCA_REQUIRE(axes.isArray() && axes.size() > 0,
                  "spec.axes must be a non-empty array");
    for (const Json &axisDoc : axes.items()) {
        ObjectReader axisReader(axisDoc, "axis");
        SweepAxis axis;
        axisReader.readString("axis", axis.label);
        LSQCA_REQUIRE(!axis.label.empty(),
                      "every axis needs an \"axis\" label");
        const Json &values = axisReader.require("values");
        LSQCA_REQUIRE(values.isArray() && values.size() > 0,
                      "axis \"" + axis.label +
                          "\" needs a non-empty values array");
        for (const Json &valueDoc : values.items())
            axis.values.push_back(
                axisValueFromJson(valueDoc, axis.label));
        axisReader.finish();
        spec.axes.push_back(std::move(axis));
    }
    reader.finish();
    return spec;
}

SweepSpec
SweepSpec::load(const std::string &path)
{
    // Json::load's errors already carry the path; only wrap the
    // schema-level ones from fromJson.
    const Json doc = Json::load(path);
    try {
        return fromJson(doc);
    } catch (const ConfigError &e) {
        throw ConfigError(path + ": " + e.what());
    }
}

Json
SweepSpec::toJson() const
{
    const bool v2 = estimator.mode != estimate::EstimatorMode::Exact;
    Json doc = Json::object();
    doc.set("schema", v2 ? kSpecSchemaV2 : kSpecSchemaV1);
    doc.set("name", name);
    if (!nameTemplate.empty())
        doc.set("name_template", nameTemplate);
    if (!archBase.isNull())
        doc.set("arch_base", archBase);
    if (recordBreakdown)
        doc.set("record_breakdown", recordBreakdown);
    if (v2)
        doc.set("estimator", api::toJson(estimator));
    Json axesDoc = Json::array();
    for (const SweepAxis &axis : axes) {
        Json axisDoc = Json::object();
        axisDoc.set("axis", axis.label);
        Json values = Json::array();
        for (const AxisValue &value : axis.values)
            values.push(axisValueToJson(value));
        axisDoc.set("values", std::move(values));
        axesDoc.push(std::move(axisDoc));
    }
    doc.set("axes", std::move(axesDoc));
    return doc;
}

ShardRange
ShardRange::parse(const std::string &text)
{
    const std::size_t slash = text.find('/');
    LSQCA_REQUIRE(slash != std::string::npos && slash > 0 &&
                      slash + 1 < text.size(),
                  "shard must look like \"i/N\", got \"" + text + "\"");
    ShardRange shard;
    try {
        std::size_t used = 0;
        shard.index = std::stoi(text.substr(0, slash), &used);
        LSQCA_REQUIRE(used == slash, "bad shard index");
        shard.count = std::stoi(text.substr(slash + 1), &used);
        LSQCA_REQUIRE(used == text.size() - slash - 1,
                      "bad shard count");
    } catch (const ConfigError &) {
        throw;
    } catch (const std::exception &) {
        throw ConfigError("shard must look like \"i/N\", got \"" + text +
                          "\"");
    }
    LSQCA_REQUIRE(shard.count >= 1, "shard count must be >= 1");
    LSQCA_REQUIRE(shard.index >= 0 && shard.index < shard.count,
                  "shard index must lie in [0, count)");
    return shard;
}

std::int32_t
parseThreadCount(const std::string &text)
{
    try {
        std::size_t used = 0;
        const int threads = std::stoi(text, &used);
        LSQCA_REQUIRE(used == text.size() && threads >= 0 &&
                          threads <= 4096,
                      "bad thread count");
        return threads;
    } catch (const ConfigError &) {
        throw ConfigError("--threads expects an integer in [0, 4096], "
                          "got \"" +
                          text + "\"");
    } catch (const std::exception &) {
        throw ConfigError("--threads expects an integer in [0, 4096], "
                          "got \"" +
                          text + "\"");
    }
}

double
parseTimeoutSeconds(const std::string &text)
{
    try {
        std::size_t used = 0;
        const double seconds = std::stod(text, &used);
        LSQCA_REQUIRE(used == text.size() && seconds > 0.0 &&
                          seconds <= 1e9,
                      "bad timeout");
        return seconds;
    } catch (const std::exception &) {
        throw ConfigError(
            "--timeout-seconds expects a number in (0, 1e9], got \"" +
            text + "\"");
    }
}

std::string
parseFingerprintArg(const std::string &text)
{
    LSQCA_REQUIRE(isFingerprint(text),
                  "--seed-check expects a 16-hex-digit shard "
                  "fingerprint, got \"" +
                      text + "\"");
    return text;
}

std::pair<std::size_t, std::size_t>
ShardRange::bounds(std::size_t total) const
{
    const auto n = static_cast<std::uint64_t>(total);
    const auto i = static_cast<std::uint64_t>(index);
    const auto c = static_cast<std::uint64_t>(count);
    return {static_cast<std::size_t>(n * i / c),
            static_cast<std::size_t>(n * (i + 1) / c)};
}

std::vector<ExpandedJob>
expandSpec(const SweepSpec &spec, const BenchmarkRegistry &registry)
{
    LSQCA_REQUIRE(!spec.axes.empty(), "spec \"" + spec.name +
                                          "\" has no axes");
    std::size_t benchAxis = spec.axes.size();
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
        const SweepAxis &axis = spec.axes[a];
        LSQCA_REQUIRE(!axis.values.empty(),
                      "axis \"" + axis.label + "\" has no values");
        for (std::size_t b = a + 1; b < spec.axes.size(); ++b)
            LSQCA_REQUIRE(spec.axes[b].label != axis.label,
                          "duplicate axis label \"" + axis.label + "\"");
        const bool hasBench = !axis.values.front().bench.empty();
        for (const AxisValue &value : axis.values)
            LSQCA_REQUIRE(
                !value.bench.empty() == hasBench,
                "axis \"" + axis.label +
                    "\" mixes benchmark and non-benchmark values");
        if (hasBench) {
            LSQCA_REQUIRE(benchAxis == spec.axes.size(),
                          "spec has more than one benchmark axis");
            benchAxis = a;
        }
    }
    LSQCA_REQUIRE(benchAxis != spec.axes.size(),
                  "spec \"" + spec.name +
                      "\" has no benchmark axis (no value sets "
                      "\"bench\")");

    std::vector<ExpandedJob> jobs;
    std::vector<std::size_t> index(spec.axes.size(), 0);
    std::vector<std::string> fragments(spec.axes.size());
    for (;;) {
        const AxisValue &benchValue =
            spec.axes[benchAxis].values[index[benchAxis]];
        ExpandedJob job;
        job.bench = benchValue.bench;
        job.params =
            registry.canonicalParams(job.bench, benchValue.params);

        ArchConfig cfg;
        if (!spec.archBase.isNull())
            applyArchPatch(cfg, spec.archBase);
        std::int64_t prefix = 0;
        for (std::size_t a = 0; a < spec.axes.size(); ++a) {
            const AxisValue &value = spec.axes[a].values[index[a]];
            if (value.prefix)
                prefix = *value.prefix;
            if (!value.translate.isNull())
                applyTranslatePatch(job.translate, value.translate);
            Json resolvedArch = value.arch;
            if (!value.arch.isNull()) {
                resolvedArch = resolveHotFraction(
                    value.arch, registry, job.bench, job.params);
                applyArchPatch(cfg, resolvedArch);
            }
            fragments[a] = valueFragment(value, resolvedArch);
        }
        cfg.validate();
        job.options.arch = cfg;
        job.options.maxInstructions = prefix;
        job.options.recordBreakdown = spec.recordBreakdown;
        job.options.estimator = spec.estimator;
        job.name = renderName(spec.nameTemplate, spec.axes, fragments, cfg);
        jobs.push_back(std::move(job));

        // Odometer: last axis spins fastest (first axis outermost).
        std::size_t a = spec.axes.size();
        for (;;) {
            if (a == 0)
                return jobs;
            --a;
            if (++index[a] < spec.axes[a].values.size())
                break;
            index[a] = 0;
        }
    }
}

Json
shardManifest(const SweepSpec &spec,
              const std::vector<ExpandedJob> &jobs,
              const ShardRange &shard, bool noTiming)
{
    const auto [begin, end] = shard.bounds(jobs.size());
    Json manifest = Json::object();
    manifest.set("schema", "lsqca-shard-v1");
    // The schema the shard's BENCH bytes will carry: a spec that turns
    // breakdowns on (v2) must miss against cached v1 results.
    manifest.set("bench_schema", benchSchemaFor(spec));
    manifest.set("engine_epoch", kEngineEpoch);
    manifest.set("sweep", spec.name);
    Json slice = Json::object();
    slice.set("index", shard.index);
    slice.set("count", shard.count);
    slice.set("offset", static_cast<std::int64_t>(begin));
    slice.set("total", static_cast<std::int64_t>(jobs.size()));
    manifest.set("shard", std::move(slice));
    manifest.set("no_timing", noTiming);
    Json jobsDoc = Json::array();
    for (std::size_t i = begin; i < end; ++i) {
        const ExpandedJob &job = jobs[i];
        Json jobDoc = Json::object();
        jobDoc.set("name", job.name);
        jobDoc.set("bench", job.bench);
        jobDoc.set("params", job.params);
        jobDoc.set("translate", toJson(job.translate));
        jobDoc.set("options", toJson(job.options));
        jobsDoc.push(std::move(jobDoc));
    }
    manifest.set("jobs", std::move(jobsDoc));
    return manifest;
}

std::string
shardFingerprint(const SweepSpec &spec,
                 const std::vector<ExpandedJob> &jobs,
                 const ShardRange &shard, bool noTiming)
{
    return contentFingerprint(
        shardManifest(spec, jobs, shard, noTiming).dump(0));
}

std::vector<std::string>
shardFingerprints(const SweepSpec &spec,
                  const std::vector<ExpandedJob> &jobs,
                  std::int32_t shardCount, bool noTiming)
{
    LSQCA_REQUIRE(shardCount >= 1, "shard count must be >= 1");
    std::vector<std::string> fingerprints;
    fingerprints.reserve(static_cast<std::size_t>(shardCount));
    for (std::int32_t i = 0; i < shardCount; ++i) {
        ShardRange shard;
        shard.index = i;
        shard.count = shardCount;
        fingerprints.push_back(
            shardFingerprint(spec, jobs, shard, noTiming));
    }
    return fingerprints;
}

namespace {

/**
 * The job manifest's field list, walked with the emitters of
 * api/serialize.h: jobManifest() builds it and jobFingerprints()
 * streams it, so a fingerprint hashes jobManifest(...).dump(0) byte
 * for byte.
 */
template <class Emit>
void
jobManifestFields(const SweepSpec &spec, const ExpandedJob &job,
                  bool noTiming, Emit &&emit)
{
    emit("schema", "lsqca-job-v1");
    // The schema the entry's document will carry: a spec that turns
    // breakdowns on (v2) must miss against cached v1 entries.
    emit("bench_schema", benchSchemaFor(spec));
    emit("engine_epoch", kEngineEpoch);
    emit("no_timing", noTiming);
    emit("name", job.name);
    emit("bench", job.bench);
    emit("params", job.params);
    emit("translate", job.translate);
    emit("options", job.options);
}

/** jobFingerprint(), streaming the manifest through @p scratch. */
std::string
streamedFingerprint(const SweepSpec &spec, const ExpandedJob &job,
                    bool noTiming, std::string &scratch)
{
    scratch.clear();
    JsonWriter out(scratch);
    writeJobManifest(out, spec, job, noTiming);
    return contentFingerprint(scratch);
}

} // namespace

void
writeJobManifest(JsonWriter &out, const SweepSpec &spec,
                 const ExpandedJob &job, bool noTiming)
{
    out.beginObject();
    jobManifestFields(spec, job, noTiming, StreamFields{out});
    out.endObject();
}

Json
jobManifest(const SweepSpec &spec, const ExpandedJob &job, bool noTiming)
{
    Json manifest = Json::object();
    jobManifestFields(spec, job, noTiming, JsonFields{manifest});
    return manifest;
}

std::string
jobFingerprint(const SweepSpec &spec, const ExpandedJob &job, bool noTiming)
{
    std::string scratch;
    return streamedFingerprint(spec, job, noTiming, scratch);
}

std::vector<std::string>
jobFingerprints(const SweepSpec &spec, const std::vector<ExpandedJob> &jobs,
                bool noTiming)
{
    std::vector<std::string> fingerprints;
    fingerprints.reserve(jobs.size());
    std::string scratch;
    for (const ExpandedJob &job : jobs)
        fingerprints.push_back(
            streamedFingerprint(spec, job, noTiming, scratch));
    return fingerprints;
}

namespace {

/**
 * Wall-clock abort for worker processes: once armed, a detached-in-
 * spirit thread _Exit()s the process when the deadline passes before
 * the owning scope finishes. _Exit (not abort/exception) because the
 * sweep threads may be anywhere; the orchestrator only needs the
 * conventional timeout exit code.
 */
class Watchdog
{
  public:
    explicit Watchdog(double seconds)
    {
        if (seconds <= 0.0)
            return;
        armed_ = true;
        thread_ = std::thread([this, seconds] {
            std::unique_lock<std::mutex> lock(mutex_);
            const bool finished = cv_.wait_for(
                lock, std::chrono::duration<double>(seconds),
                [this] { return finished_; });
            if (!finished) {
                std::cerr << "lsqca: sweep exceeded --timeout-seconds "
                          << seconds << "; aborting\n";
                std::_Exit(kTimeoutExitCode);
            }
        });
    }

    ~Watchdog()
    {
        if (!armed_)
            return;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            finished_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

  private:
    bool armed_ = false;
    bool finished_ = false;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::thread thread_;
};

} // namespace

SpecRun
runSpec(const SweepSpec &spec, BenchmarkRegistry &registry,
        const RunSpecOptions &options)
{
    SpecRun run;
    std::vector<ExpandedJob> all = expandSpec(spec, registry);
    // Before the seed check: a forced-exact shard must expand to the
    // fingerprint of the exact slice the escalation queued.
    if (options.forceExact)
        for (ExpandedJob &job : all)
            job.options.estimator = estimate::EstimatorOptions{};
    if (!options.seedCheck.empty()) {
        const std::string expanded = shardFingerprint(
            spec, all, options.shard, options.noTiming);
        LSQCA_REQUIRE(
            expanded == options.seedCheck,
            "--seed-check mismatch: this invocation expands to shard "
            "fingerprint " +
                expanded + ", expected " + options.seedCheck +
                " (the spec file or benchmark registry changed since "
                "the shard was queued)");
    }
    const Watchdog watchdog(options.timeoutSeconds);
    const auto [begin, end] = options.shard.bounds(all.size());
    run.expanded.assign(std::make_move_iterator(all.begin() +
                                                static_cast<std::ptrdiff_t>(begin)),
                        std::make_move_iterator(all.begin() +
                                                static_cast<std::ptrdiff_t>(end)));

    // Job-cache partition: with a cache attached, every slice job is
    // looked up by its content fingerprint *before* program
    // resolution — hits splice their cached BENCH entry, and only the
    // misses are synthesized and simulated below.
    const std::size_t sliceSize = run.expanded.size();
    std::vector<std::string> prints;
    std::vector<Json> cachedEntries(sliceSize);
    std::vector<std::size_t> stale;
    if (options.jobCache != nullptr) {
        prints = jobFingerprints(spec, run.expanded, options.noTiming);
        for (std::size_t i = 0; i < sliceSize; ++i) {
            cachedEntries[i] = options.jobCache->fetchEntry(prints[i]);
            if (cachedEntries[i].isNull())
                stale.push_back(i);
        }
    } else {
        stale.resize(sliceSize);
        std::iota(stale.begin(), stale.end(), std::size_t{0});
    }
    run.jobCacheHits = static_cast<std::int64_t>(sliceSize - stale.size());
    run.jobsComputed = static_cast<std::int64_t>(stale.size());

    // Program resolution happens only for the jobs actually run, so a
    // shard never pays for benchmarks that belong to other machines —
    // nor, with a job cache, for jobs whose entries it already holds.
    // Each distinct program is built once, and only as far as the
    // longest prefix its jobs simulate (0, the whole program, wins):
    // the paper's 60k-instruction steady-state sweeps never translate
    // the rest of a million-instruction multiplier.
    std::vector<ProgramRequest> requests;
    std::unordered_map<std::string, std::size_t> requestOf;
    std::vector<std::size_t> jobRequest;
    jobRequest.reserve(stale.size());
    for (const std::size_t i : stale) {
        const ExpandedJob &expanded = run.expanded[i];
        const std::int64_t limit =
            std::max<std::int64_t>(expanded.options.maxInstructions, 0);
        // Canonical params: equal programs have equal keys.
        const auto [found, fresh] = requestOf.emplace(
            expanded.bench + "|" + expanded.params.dump(0) + "|" +
                toJson(expanded.translate).dump(0),
            requests.size());
        if (fresh) {
            requests.push_back({expanded.bench, expanded.params,
                                expanded.translate, limit});
        } else {
            std::int64_t &longest = requests[found->second].maxInstructions;
            longest = longest == 0 || limit == 0 ? 0
                                                 : std::max(longest, limit);
        }
        jobRequest.push_back(found->second);
    }
    // The builds fan out over as many threads as the sweep, and all
    // finish before it starts, so none of their time lands in its wall
    // clock.
    const std::vector<const Program *> programs =
        registry.programs(requests, options.threads);
    run.jobs.reserve(stale.size());
    for (std::size_t k = 0; k < stale.size(); ++k) {
        const ExpandedJob &expanded = run.expanded[stale[k]];
        SweepJob job;
        job.name = expanded.name;
        job.program = programs[jobRequest[k]];
        job.options = expanded.options;
        run.jobs.push_back(std::move(job));
    }

    const auto storeEntry = [&](std::size_t slicePos, const Json &entry) {
        if (options.jobCache == nullptr)
            return;
        options.jobCache->storeEntry(
            prints[slicePos], entry,
            jobManifest(spec, run.expanded[slicePos], options.noTiming));
    };

    const SweepEngine engine({options.threads, options.metrics});
    if (options.dieAfter >= 0 &&
        static_cast<std::size_t>(options.dieAfter) < run.jobs.size()) {
        const std::vector<SweepJob> partial(
            run.jobs.begin(),
            run.jobs.begin() +
                static_cast<std::ptrdiff_t>(options.dieAfter));
        const SweepReport partialReport = engine.run(partial);
        // A dying worker still publishes the jobs it finished: the
        // retry attempt recomputes only the tail.
        for (std::size_t k = 0; k < partial.size(); ++k)
            storeEntry(stale[k],
                       benchEntry(partial[k].name, partialReport.results[k],
                                  options.noTiming
                                      ? 0.0
                                      : partialReport.jobSeconds[k]));
        std::cerr << "lsqca: --die-after " << options.dieAfter
                  << ": dying mid-shard (test hook)\n";
        std::_Exit(kDieAfterExitCode);
    }
    run.report = engine.run(run.jobs);

    SweepReport documented = run.report;
    if (options.noTiming) {
        documented.threads = 0;
        documented.wallSeconds = 0.0;
        documented.jobSeconds.assign(run.jobs.size(), 0.0);
    }
    // Splice cached and computed entries back into slice order (with
    // no job cache, every entry is computed). The Json layer's
    // round-trip guarantee keeps this document byte-identical to
    // benchReport() over a fresh full simulation of the slice.
    bool v2 = spec.recordBreakdown;
    Json entries = Json::array();
    std::size_t k = 0;
    for (std::size_t i = 0; i < sliceSize; ++i) {
        if (!cachedEntries[i].isNull()) {
            v2 = v2 || cachedEntries[i].contains("breakdown");
            entries.push(std::move(cachedEntries[i]));
            continue;
        }
        v2 = v2 || !documented.results[k].breakdown.empty();
        Json entry = benchEntry(run.jobs[k].name, documented.results[k],
                                documented.jobSeconds[k]);
        storeEntry(i, entry);
        entries.push(std::move(entry));
        ++k;
    }
    run.document = benchDocument(spec.name, std::move(entries),
                                 documented.threads,
                                 documented.wallSeconds, v2);
    if (!options.shard.isWhole()) {
        Json shard = Json::object();
        shard.set("index", options.shard.index);
        shard.set("count", options.shard.count);
        shard.set("offset", static_cast<std::int64_t>(begin));
        shard.set("total", static_cast<std::int64_t>(all.size()));
        run.document.set("shard", std::move(shard));
    }

    if (options.writeJson) {
        std::string fileStem = spec.name;
        if (!options.shard.isWhole())
            fileStem += ".shard" + std::to_string(options.shard.index) +
                        "of" + std::to_string(options.shard.count);
        run.jsonPath =
            writeBenchJson(fileStem, run.document, options.outDir);
        std::cerr << spec.name << ": " << run.expanded.size() << " jobs, "
                  << run.report.threads << " threads, "
                  << TextTable::num(run.report.wallSeconds, 3)
                  << " s -> " << run.jsonPath;
        if (run.jobCacheHits > 0)
            std::cerr << " (" << run.jobCacheHits << " from job cache)";
        std::cerr << "\n";
    }
    return run;
}

Json
mergeBenchReports(const std::vector<Json> &docs,
                  const std::vector<std::string> &labels)
{
    LSQCA_REQUIRE(!docs.empty(), "merge needs at least one document");
    LSQCA_REQUIRE(labels.empty() || labels.size() == docs.size(),
                  "merge labels must parallel the documents");
    const auto labelOf = [&](std::size_t doc) {
        return labels.empty() ? "document " + std::to_string(doc + 1)
                              : labels[doc];
    };

    struct Piece
    {
        const Json *doc = nullptr;
        std::size_t source = 0;
        std::int32_t index = 0;
        std::int64_t offset = 0;
    };
    std::vector<Piece> pieces;
    std::string bench;
    std::string schema;
    std::size_t sharded = 0;
    std::int32_t count = 0;
    std::int64_t total = 0;
    for (const Json &doc : docs) {
        LSQCA_REQUIRE(doc.isObject(), "BENCH document must be an object");
        const std::string docSchema = benchSchemaOf(doc);
        if (schema.empty())
            schema = docSchema;
        LSQCA_REQUIRE(docSchema == schema,
                      "cannot merge mixed BENCH schemas: \"" + schema +
                          "\" vs \"" + docSchema + "\"");
        const std::string docBench = doc.at("bench").asString();
        if (bench.empty())
            bench = docBench;
        LSQCA_REQUIRE(docBench == bench,
                      "cannot merge different sweeps: \"" + bench +
                          "\" vs \"" + docBench + "\"");
        Piece piece;
        piece.doc = &doc;
        piece.source = pieces.size();
        if (const Json *shard = doc.find("shard")) {
            ++sharded;
            piece.index =
                static_cast<std::int32_t>(shard->at("index").asInt());
            piece.offset = shard->at("offset").asInt();
            const auto docCount =
                static_cast<std::int32_t>(shard->at("count").asInt());
            const std::int64_t docTotal = shard->at("total").asInt();
            if (sharded == 1) {
                count = docCount;
                total = docTotal;
            }
            LSQCA_REQUIRE(docCount == count && docTotal == total,
                          "shard documents disagree on the sweep "
                          "partition");
        }
        pieces.push_back(piece);
    }
    LSQCA_REQUIRE(sharded == 0 || sharded == docs.size(),
                  "cannot mix sharded and unsharded BENCH documents");

    if (sharded > 0) {
        LSQCA_REQUIRE(static_cast<std::int32_t>(docs.size()) == count,
                      "expected " + std::to_string(count) +
                          " shards, got " + std::to_string(docs.size()));
        std::sort(pieces.begin(), pieces.end(),
                  [](const Piece &a, const Piece &b) {
                      return a.index < b.index;
                  });
        for (std::size_t i = 0; i < pieces.size(); ++i)
            LSQCA_REQUIRE(pieces[i].index ==
                              static_cast<std::int32_t>(i),
                          "shard indices must cover 0..count-1 exactly "
                          "once");
    }

    std::int32_t threads = 0;
    double wallSeconds = 0.0;
    Json entries = Json::array();
    std::int64_t jobCount = 0;
    struct FirstSeen
    {
        std::size_t source;
        std::size_t entry;
    };
    std::unordered_map<std::string, FirstSeen> seen;
    for (const Piece &piece : pieces) {
        const Json &doc = *piece.doc;
        if (sharded > 0)
            LSQCA_REQUIRE(piece.offset == jobCount,
                          "shard entry counts do not line up with "
                          "their offsets");
        threads = std::max(
            threads,
            static_cast<std::int32_t>(doc.at("threads").asInt()));
        wallSeconds += doc.at("wall_seconds").asDouble();
        const Json &docEntries = doc.at("entries");
        LSQCA_REQUIRE(docEntries.isArray(),
                      "BENCH entries must be an array");
        std::size_t position = 0;
        for (const Json &entry : docEntries.items()) {
            const std::string &name = entry.at("name").asString();
            const auto [first, inserted] =
                seen.emplace(name, FirstSeen{piece.source, position});
            LSQCA_REQUIRE(
                inserted,
                "duplicate entry \"" + name + "\": first in " +
                    labelOf(first->second.source) + " (entry " +
                    std::to_string(first->second.entry) +
                    "), again in " + labelOf(piece.source) +
                    " (entry " + std::to_string(position) + ")");
            entries.push(entry);
            ++jobCount;
            ++position;
        }
    }
    if (sharded > 0)
        LSQCA_REQUIRE(jobCount == total,
                      "merged entries do not cover the whole sweep");

    Json merged = Json::object();
    merged.set("bench", bench);
    merged.set("schema", schema);
    merged.set("threads", threads);
    merged.set("jobs", jobCount);
    merged.set("wall_seconds", wallSeconds);
    merged.set("entries", std::move(entries));
    return merged;
}

} // namespace lsqca::api
