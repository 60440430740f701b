#include "api/registry.h"

#include <limits>

#include "api/json_reader.h"
#include "circuit/lowering.h"
#include "common/error.h"
#include "synth/benchmarks.h"

namespace lsqca::api {
namespace {

/** Treat a null params value as the empty object. */
Json
paramsOrEmpty(const Json &params)
{
    if (params.isNull())
        return Json::object();
    LSQCA_REQUIRE(params.isObject(),
                  "benchmark params must be a JSON object");
    return params;
}

constexpr std::int64_t kMaxInt32 =
    std::numeric_limits<std::int32_t>::max();

BenchmarkEntry
adderEntry()
{
    BenchmarkEntry entry;
    entry.name = "adder";
    entry.summary = "VBE ripple-carry adder (paper: 433 qubits)";
    entry.canonicalize = [](const Json &params) {
        std::int32_t width = 144;
        const Json given = paramsOrEmpty(params);
        ObjectReader reader(given, "adder params");
        reader.readInt32("width", width, 1, kMaxInt32);
        reader.finish();
        return Json::object().set("width", width);
    };
    entry.synthesize = [](const Json &canonical) {
        return makeAdder(
            static_cast<std::int32_t>(canonical.at("width").asInt()));
    };
    return entry;
}

BenchmarkEntry
bvEntry()
{
    BenchmarkEntry entry;
    entry.name = "bv";
    entry.summary = "Bernstein-Vazirani (paper: 280 qubits)";
    entry.canonicalize = [](const Json &params) {
        std::int32_t qubits = 280;
        std::int64_t secret = -1; // all-ones mask
        const Json given = paramsOrEmpty(params);
        ObjectReader reader(given, "bv params");
        reader.readInt32("num_qubits", qubits, 2, kMaxInt32);
        reader.readInt64("secret", secret);
        reader.finish();
        return Json::object()
            .set("num_qubits", qubits)
            .set("secret", secret);
    };
    entry.synthesize = [](const Json &canonical) {
        return makeBernsteinVazirani(
            static_cast<std::int32_t>(
                canonical.at("num_qubits").asInt()),
            static_cast<std::uint64_t>(canonical.at("secret").asInt()));
    };
    return entry;
}

BenchmarkEntry
sizedEntry(const char *name, const char *summary, std::int32_t qubits,
           Circuit (*make)(std::int32_t))
{
    BenchmarkEntry entry;
    entry.name = name;
    entry.summary = summary;
    const std::string what = std::string(name) + " params";
    entry.canonicalize = [qubits, what](const Json &params) {
        std::int32_t n = qubits;
        const Json given = paramsOrEmpty(params);
        ObjectReader reader(given, what);
        reader.readInt32("num_qubits", n, 2, kMaxInt32);
        reader.finish();
        return Json::object().set("num_qubits", n);
    };
    entry.synthesize = [make](const Json &canonical) {
        return make(static_cast<std::int32_t>(
            canonical.at("num_qubits").asInt()));
    };
    return entry;
}

BenchmarkEntry
multiplierEntry()
{
    BenchmarkEntry entry;
    entry.name = "multiplier";
    entry.summary = "shift-add multiplier (paper: 400 qubits)";
    entry.canonicalize = [](const Json &params) {
        MultiplierParams p;
        const Json given = paramsOrEmpty(params);
        ObjectReader reader(given, "multiplier params");
        reader.readInt32("width_a", p.widthA, 1, kMaxInt32);
        reader.readInt32("width_b", p.widthB, 1, kMaxInt32);
        reader.finish();
        return Json::object()
            .set("width_a", p.widthA)
            .set("width_b", p.widthB);
    };
    entry.synthesize = [](const Json &canonical) {
        MultiplierParams p;
        p.widthA = static_cast<std::int32_t>(
            canonical.at("width_a").asInt());
        p.widthB = static_cast<std::int32_t>(
            canonical.at("width_b").asInt());
        return makeMultiplier(p);
    };
    return entry;
}

BenchmarkEntry
squareRootEntry()
{
    BenchmarkEntry entry;
    entry.name = "square_root";
    entry.summary = "Grover square-root search (paper: 60 qubits)";
    entry.canonicalize = [](const Json &params) {
        SquareRootParams p;
        std::int64_t target = static_cast<std::int64_t>(p.target);
        const Json given = paramsOrEmpty(params);
        ObjectReader reader(given, "square_root params");
        reader.readInt32("width", p.width, 2, kMaxInt32);
        reader.readInt64("target", target, 0,
                         std::numeric_limits<std::int64_t>::max());
        reader.readInt32("iterations", p.iterations, 1, kMaxInt32);
        reader.finish();
        return Json::object()
            .set("width", p.width)
            .set("target", target)
            .set("iterations", p.iterations);
    };
    entry.synthesize = [](const Json &canonical) {
        SquareRootParams p;
        p.width =
            static_cast<std::int32_t>(canonical.at("width").asInt());
        p.target =
            static_cast<std::uint64_t>(canonical.at("target").asInt());
        p.iterations = static_cast<std::int32_t>(
            canonical.at("iterations").asInt());
        return makeSquareRoot(p);
    };
    return entry;
}

BenchmarkEntry
selectEntry()
{
    BenchmarkEntry entry;
    entry.name = "select";
    entry.summary =
        "SELECT for the 2-D Heisenberg model (paper: width 11)";
    entry.canonicalize = [](const Json &params) {
        SelectParams p;
        const Json given = paramsOrEmpty(params);
        ObjectReader reader(given, "select params");
        reader.readInt32("width", p.width, 2, kMaxInt32);
        reader.readInt64("max_terms", p.maxTerms, 0,
                         std::numeric_limits<std::int64_t>::max());
        reader.readInt32("control_copies", p.controlCopies, 1,
                         kMaxInt32);
        reader.finish();
        return Json::object()
            .set("width", p.width)
            .set("max_terms", p.maxTerms)
            .set("control_copies", p.controlCopies);
    };
    entry.synthesize = [](const Json &canonical) {
        SelectParams p;
        p.width =
            static_cast<std::int32_t>(canonical.at("width").asInt());
        p.maxTerms = canonical.at("max_terms").asInt();
        p.controlCopies = static_cast<std::int32_t>(
            canonical.at("control_copies").asInt());
        return makeSelect(p);
    };
    entry.hotFraction = [](const Json &canonical) {
        return selectHotFraction(static_cast<std::int32_t>(
            canonical.at("width").asInt()));
    };
    return entry;
}

} // namespace

void
BenchmarkRegistry::add(BenchmarkEntry entry)
{
    LSQCA_REQUIRE(!entry.name.empty(), "benchmark name must be set");
    LSQCA_REQUIRE(entry.canonicalize && entry.synthesize,
                  "benchmark \"" + entry.name +
                      "\" needs canonicalize and synthesize functions");
    for (const auto &existing : entries_)
        LSQCA_REQUIRE(existing.name != entry.name,
                      "duplicate benchmark \"" + entry.name + "\"");
    entries_.push_back(std::move(entry));
}

BenchmarkRegistry
BenchmarkRegistry::paper()
{
    BenchmarkRegistry registry;
    registry.add(adderEntry());
    registry.add(bvEntry());
    registry.add(sizedEntry("cat", "cat-state CX chain (paper: 260 qubits)",
                            260, &makeCat));
    registry.add(sizedEntry("ghz", "GHZ-state CX chain (paper: 127 qubits)",
                            127, &makeGhz));
    registry.add(multiplierEntry());
    registry.add(squareRootEntry());
    registry.add(selectEntry());
    return registry;
}

const BenchmarkEntry &
BenchmarkRegistry::entry(const std::string &name) const
{
    for (const auto &candidate : entries_)
        if (candidate.name == name)
            return candidate;
    std::string known;
    for (const auto &candidate : entries_)
        known += (known.empty() ? "" : "|") + candidate.name;
    throw ConfigError("unknown benchmark \"" + name + "\" (registered: " +
                      known + ")");
}

Json
BenchmarkRegistry::canonicalParams(const std::string &name,
                                   const Json &params) const
{
    return entry(name).canonicalize(params);
}

const Program &
BenchmarkRegistry::program(const std::string &name, const Json &params,
                           const TranslateOptions &translate_options)
{
    const BenchmarkEntry &bench = entry(name);
    const Json canonical = bench.canonicalize(params);
    const std::string key =
        name + "|" + canonical.dump(0) + "|" +
        (translate_options.inMemoryOps ? "mem" : "ldst") + "|cr" +
        std::to_string(translate_options.crSlots);
    auto found = programs_.find(key);
    if (found == programs_.end()) {
        // Two statements, so the synthesized circuit is freed before
        // translation: only the lowered one stays alive next to the
        // Program being built (this sets the peak memory of
        // full-length SELECT sweeps).
        const Circuit lowered =
            lowerToCliffordT(bench.synthesize(canonical));
        auto program = std::make_unique<Program>(
            translate(lowered, translate_options));
        found = programs_.emplace(key, std::move(program)).first;
    }
    return *found->second;
}

double
BenchmarkRegistry::hotFraction(const std::string &name,
                               const Json &params) const
{
    const BenchmarkEntry &bench = entry(name);
    LSQCA_REQUIRE(bench.hotFraction,
                  "benchmark \"" + name +
                      "\" does not define a hot-set fraction");
    return bench.hotFraction(bench.canonicalize(params));
}

} // namespace lsqca::api
