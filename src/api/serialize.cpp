#include "api/serialize.h"

#include <cstdint>
#include <limits>

#include "api/json_reader.h"
#include "common/error.h"

namespace lsqca::api {

namespace {

// The one field list of each options struct, in document order:
// toJson() builds a tree from it and writeJson() streams the same
// bytes (the job fingerprint), so the two cannot drift apart. A nested
// options struct reaches the emitter as itself.

template <class Emit>
void
fields(const Latencies &lat, Emit &&emit)
{
    emit("hadamard", lat.hadamard);
    emit("phase", lat.phase);
    emit("surgery", lat.surgery);
    emit("move", lat.move);
    emit("long_move", lat.longMove);
    emit("pick_diagonal1", lat.pickDiagonal1);
    emit("pick_straight1", lat.pickStraight1);
    emit("pick_diagonal2", lat.pickDiagonal2);
    emit("pick_straight2", lat.pickStraight2);
    emit("msf_period", lat.msfPeriod);
    emit("magic_transfer", lat.magicTransfer);
    emit("sk_wait", lat.skWait);
}

template <class Emit>
void
fields(const ArchConfig &cfg, Emit &&emit)
{
    emit("sam", samKindName(cfg.sam));
    emit("banks", cfg.banks);
    emit("factories", cfg.factories);
    emit("buffer_cap", cfg.bufferCap);
    emit("hybrid_fraction", cfg.hybridFraction);
    emit("locality_store", cfg.localityStore);
    emit("in_memory_ops", cfg.inMemoryOps);
    emit("row_parallel_ops", cfg.rowParallelOps);
    emit("direct_surgery", cfg.directSurgery);
    emit("placement", placementPolicyName(cfg.placement));
    emit("instant_magic", cfg.instantMagic);
    emit("warm_buffer", cfg.warmBuffer);
    emit("latencies", cfg.lat);
}

template <class Emit>
void
fields(const estimate::EstimatorOptions &options, Emit &&emit)
{
    emit("mode", estimate::estimatorModeName(options.mode));
    emit("unit_instrs", options.unitInstrs);
    emit("warmup_instrs", options.warmupInstrs);
    emit("period", options.period);
    emit("target_ci", options.targetCi);
}

template <class Emit>
void
fields(const SimOptions &options, Emit &&emit)
{
    emit("arch", options.arch);
    emit("max_instructions", options.maxInstructions);
    emit("record_breakdown", options.recordBreakdown);
    // Omitted when exact, so exact-mode documents — and everything
    // fingerprinted from them (shard manifests, cache keys) — never
    // depend on the estimator's defaults.
    if (options.estimator.mode != estimate::EstimatorMode::Exact)
        emit("estimator", options.estimator);
}

template <class Emit>
void
fields(const TranslateOptions &options, Emit &&emit)
{
    emit("in_memory_ops", options.inMemoryOps);
    emit("cr_slots", options.crSlots);
}

template <class T>
Json
buildFields(const T &x)
{
    Json doc = Json::object();
    fields(x, JsonFields{doc});
    return doc;
}

template <class T>
void
streamFields(JsonWriter &out, const T &x)
{
    out.beginObject();
    fields(x, StreamFields{out});
    out.endObject();
}

} // namespace

Json
toJson(const Latencies &lat)
{
    return buildFields(lat);
}

void
writeJson(JsonWriter &out, const Latencies &lat)
{
    streamFields(out, lat);
}

void
applyLatenciesPatch(Latencies &lat, const Json &patch)
{
    ObjectReader reader(patch, "latencies");
    // Negative beat counts are meaningless for every field; the
    // stricter >= 1 floors (move/surgery/msf_period) are enforced by
    // ArchConfig::validate() once the full config is assembled.
    const std::int64_t max = std::numeric_limits<std::int32_t>::max();
    reader.readInt32("hadamard", lat.hadamard, 0, max);
    reader.readInt32("phase", lat.phase, 0, max);
    reader.readInt32("surgery", lat.surgery, 0, max);
    reader.readInt32("move", lat.move, 0, max);
    reader.readInt32("long_move", lat.longMove, 0, max);
    reader.readInt32("pick_diagonal1", lat.pickDiagonal1, 0, max);
    reader.readInt32("pick_straight1", lat.pickStraight1, 0, max);
    reader.readInt32("pick_diagonal2", lat.pickDiagonal2, 0, max);
    reader.readInt32("pick_straight2", lat.pickStraight2, 0, max);
    reader.readInt32("msf_period", lat.msfPeriod, 0, max);
    reader.readInt32("magic_transfer", lat.magicTransfer, 0, max);
    reader.readInt32("sk_wait", lat.skWait, 0, max);
    reader.finish();
}

Latencies
latenciesFromJson(const Json &doc)
{
    Latencies lat;
    applyLatenciesPatch(lat, doc);
    return lat;
}

Json
toJson(const ArchConfig &cfg)
{
    return buildFields(cfg);
}

void
writeJson(JsonWriter &out, const ArchConfig &cfg)
{
    streamFields(out, cfg);
}

void
applyArchPatch(ArchConfig &cfg, const Json &patch)
{
    ObjectReader reader(patch, "arch");
    if (const Json *sam = reader.find("sam")) {
        LSQCA_REQUIRE(sam->isString(), "arch.sam must be a string");
        cfg.sam = samKindFromName(sam->asString());
    }
    const std::int64_t max = std::numeric_limits<std::int32_t>::max();
    reader.readInt32("banks", cfg.banks, 1, max);
    reader.readInt32("factories", cfg.factories, 1, max);
    reader.readInt32("buffer_cap", cfg.bufferCap, -1, max);
    reader.readDouble("hybrid_fraction", cfg.hybridFraction, 0.0, 1.0);
    reader.readBool("locality_store", cfg.localityStore);
    reader.readBool("in_memory_ops", cfg.inMemoryOps);
    reader.readBool("row_parallel_ops", cfg.rowParallelOps);
    reader.readBool("direct_surgery", cfg.directSurgery);
    if (const Json *placement = reader.find("placement")) {
        LSQCA_REQUIRE(placement->isString(),
                      "arch.placement must be a string");
        cfg.placement = placementPolicyFromName(placement->asString());
    }
    reader.readBool("instant_magic", cfg.instantMagic);
    reader.readBool("warm_buffer", cfg.warmBuffer);
    if (const Json *lat = reader.find("latencies"))
        applyLatenciesPatch(cfg.lat, *lat);
    reader.finish();
}

ArchConfig
archConfigFromJson(const Json &doc)
{
    ArchConfig cfg;
    applyArchPatch(cfg, doc);
    cfg.validate();
    return cfg;
}

Json
toJson(const estimate::EstimatorOptions &options)
{
    return buildFields(options);
}

void
writeJson(JsonWriter &out, const estimate::EstimatorOptions &options)
{
    streamFields(out, options);
}

estimate::EstimatorOptions
estimatorOptionsFromJson(const Json &doc)
{
    estimate::EstimatorOptions options;
    ObjectReader reader(doc, "estimator");
    const Json &mode = reader.require("mode");
    LSQCA_REQUIRE(mode.isString(), "estimator.mode must be a string");
    options.mode = estimate::estimatorModeFromName(mode.asString());
    const std::int64_t max = std::numeric_limits<std::int64_t>::max();
    reader.readInt64("unit_instrs", options.unitInstrs, 1, max);
    reader.readInt64("warmup_instrs", options.warmupInstrs, 0, max);
    reader.readInt64("period", options.period, 1, max);
    reader.readDouble("target_ci", options.targetCi, 0.0,
                      std::numeric_limits<double>::max());
    reader.finish();
    options.validate();
    return options;
}

Json
toJson(const SimOptions &options)
{
    return buildFields(options);
}

void
writeJson(JsonWriter &out, const SimOptions &options)
{
    streamFields(out, options);
}

SimOptions
simOptionsFromJson(const Json &doc)
{
    SimOptions options;
    ObjectReader reader(doc, "options");
    if (const Json *arch = reader.find("arch"))
        options.arch = archConfigFromJson(*arch);
    reader.readInt64("max_instructions", options.maxInstructions, 0,
                     std::numeric_limits<std::int64_t>::max());
    reader.readBool("record_breakdown", options.recordBreakdown);
    if (const Json *estimator = reader.find("estimator"))
        options.estimator = estimatorOptionsFromJson(*estimator);
    reader.finish();
    options.arch.validate();
    return options;
}

Json
toJson(const LatencySplit &split)
{
    Json doc = Json::object();
    doc.set("load", split.load);
    doc.set("store", split.store);
    doc.set("seek", split.seek);
    doc.set("pick", split.pick);
    doc.set("align", split.align);
    doc.set("surgery", split.surgery);
    doc.set("compute", split.compute);
    doc.set("magic_stall", split.magicStall);
    doc.set("sk_wait", split.skWait);
    return doc;
}

LatencySplit
latencySplitFromJson(const Json &doc)
{
    LatencySplit split;
    ObjectReader reader(doc, "split");
    const std::int64_t max = std::numeric_limits<std::int64_t>::max();
    reader.readInt64("load", split.load, 0, max);
    reader.readInt64("store", split.store, 0, max);
    reader.readInt64("seek", split.seek, 0, max);
    reader.readInt64("pick", split.pick, 0, max);
    reader.readInt64("align", split.align, 0, max);
    reader.readInt64("surgery", split.surgery, 0, max);
    reader.readInt64("compute", split.compute, 0, max);
    reader.readInt64("magic_stall", split.magicStall, 0, max);
    reader.readInt64("sk_wait", split.skWait, 0, max);
    reader.finish();
    return split;
}

Json
toJson(const std::vector<OpcodeSplit> &breakdown)
{
    Json doc = Json::array();
    for (const OpcodeSplit &row : breakdown) {
        Json entry = Json::object();
        entry.set("op", mnemonic(row.op));
        entry.set("count", row.count);
        entry.set("beats", row.beats);
        entry.set("split", toJson(row.split));
        doc.push(std::move(entry));
    }
    return doc;
}

std::vector<OpcodeSplit>
breakdownFromJson(const Json &doc)
{
    LSQCA_REQUIRE(doc.isArray(), "breakdown must be an array");
    std::vector<OpcodeSplit> breakdown;
    for (const Json &entryDoc : doc.items()) {
        ObjectReader reader(entryDoc, "breakdown entry");
        OpcodeSplit row;
        const Json &op = reader.require("op");
        LSQCA_REQUIRE(op.isString(),
                      "breakdown entry.op must be a string");
        row.op = opcodeFromMnemonic(op.asString());
        const std::int64_t max =
            std::numeric_limits<std::int64_t>::max();
        reader.readInt64("count", row.count, 0, max);
        reader.readInt64("beats", row.beats, 0, max);
        row.split = latencySplitFromJson(reader.require("split"));
        reader.finish();
        breakdown.push_back(row);
    }
    return breakdown;
}

Json
toJson(const TranslateOptions &options)
{
    return buildFields(options);
}

void
writeJson(JsonWriter &out, const TranslateOptions &options)
{
    streamFields(out, options);
}

void
applyTranslatePatch(TranslateOptions &options, const Json &patch)
{
    ObjectReader reader(patch, "translate");
    reader.readBool("in_memory_ops", options.inMemoryOps);
    reader.readInt32("cr_slots", options.crSlots, 2, kMaxCrSlots);
    reader.finish();
}

TranslateOptions
translateOptionsFromJson(const Json &doc)
{
    TranslateOptions options;
    applyTranslatePatch(options, doc);
    return options;
}

} // namespace lsqca::api
