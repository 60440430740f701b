#ifndef LSQCA_API_REGISTRY_H
#define LSQCA_API_REGISTRY_H

/**
 * @file
 * Name-addressable benchmark programs: the declarative experiment API's
 * front end to src/synth. A registry maps (benchmark name, JSON
 * parameter object, translate options) to a Program, synthesized and
 * then lowered and translated in one pass (lowerAndTranslate: no
 * lowered circuit is built), memoizing the result so one program
 * shared across N sweep points is built exactly once — the largest
 * part of a big sweep's setup.
 *
 * Parameters are validated strictly (unknown keys and out-of-range
 * values throw ConfigError) and canonicalized (defaults filled in), so
 * `{"width": 11}` and `{}` name the same cached program when 11 is the
 * default.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/circuit.h"
#include "common/json.h"
#include "isa/program.h"
#include "translate/translate.h"

namespace lsqca::api {

/** One registered benchmark generator. */
struct BenchmarkEntry
{
    std::string name;
    std::string summary;

    /**
     * Strict-parse @p params (an object or null) and return the full
     * canonical parameter object with defaults filled in. Throws
     * ConfigError on unknown keys or out-of-range values.
     */
    std::function<Json(const Json &params)> canonicalize;

    /** Synthesize the circuit for canonicalized parameters. */
    std::function<Circuit(const Json &canonical)> synthesize;

    /**
     * Fraction of qubits that form the benchmark's hot working set
     * (resolves the spec-file "hybrid_fraction": "hot" placeholder).
     * Null when the benchmark defines no such notion.
     */
    std::function<double(const Json &canonical)> hotFraction;
};

/** Maps names + parameter objects to translated Programs (memoized). */
class BenchmarkRegistry
{
  public:
    /** Register a generator. @throws ConfigError on duplicate names. */
    void add(BenchmarkEntry entry);

    /** All seven paper generators (Sec. VI-B), in paper order. */
    static BenchmarkRegistry paper();

    /** Registered entries in registration order. */
    const std::vector<BenchmarkEntry> &entries() const
    {
        return entries_;
    }

    /** Lookup by name. @throws ConfigError when unknown. */
    const BenchmarkEntry &entry(const std::string &name) const;

    /** Canonical parameters for @p name (see BenchmarkEntry). */
    Json canonicalParams(const std::string &name,
                         const Json &params) const;

    /**
     * The translated program for (name, params, translate options),
     * built on first use and cached thereafter. The reference stays
     * valid for the registry's lifetime.
     */
    const Program &program(const std::string &name, const Json &params,
                           const TranslateOptions &translate = {});

    /** Hot-set fraction (see BenchmarkEntry). @throws when undefined. */
    double hotFraction(const std::string &name, const Json &params) const;

    /** Cached translations so far (observability for tests/CLI). */
    std::size_t cachedPrograms() const { return programs_.size(); }

  private:
    std::vector<BenchmarkEntry> entries_;
    std::unordered_map<std::string, std::unique_ptr<Program>> programs_;
};

} // namespace lsqca::api

#endif // LSQCA_API_REGISTRY_H
