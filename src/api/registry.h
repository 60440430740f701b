#ifndef LSQCA_API_REGISTRY_H
#define LSQCA_API_REGISTRY_H

/**
 * @file
 * Name-addressable benchmark programs: the declarative experiment API's
 * front end to src/synth. A registry maps (benchmark name, JSON
 * parameter object, translate options, instruction limit) to a
 * Program, synthesized and then lowered and translated in one pass
 * (lowerAndTranslate: no lowered circuit is built), memoizing the
 * result so one program shared across N sweep points is built exactly
 * once — the largest part of a big sweep's setup. A sweep asks for
 * all its programs in one batch, each with the longest prefix its jobs
 * simulate (runSpec), so a 60k-instruction steady-state sweep never
 * translates the rest of a million-instruction program, and the
 * batch builds in parallel, on as many threads as the sweep, before
 * the sweep starts.
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

/** One program a caller asks the registry for (see program()). */
struct ProgramRequest
{
    std::string bench;
    Json params;
    TranslateOptions translate;
    std::int64_t maxInstructions = 0;
};

/**
 * Maps names + parameter objects to translated Programs (memoized).
 *
 * Where builds run: program() builds on the calling thread; programs()
 * builds the programs its batch misses on worker threads, at most one
 * per distinct program, through the fan-out the sweep engine uses
 * (src/sweep/fan_out.h), and runSpec() hands it the sweep's thread
 * count. Synthesis and translation hold no shared state, and only the
 * calling thread reads or writes the memo, so the registry takes no
 * lock. Like any container, one registry must not be called from two
 * threads at once.
 */
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
     *
     * A positive @p maxInstructions builds only the prefix a job
     * limited to that many instructions simulates (lowerAndTranslate()
     * stops at the next gate boundary); its referenceCounts() are
     * still the whole program's. The memo is keyed on the limit too,
     * so ask once per program with the longest limit any of its jobs
     * needs. 0 (or less, as SimOptions::maxInstructions) builds the
     * whole program. This is programs() with one request, on the
     * calling thread.
     */
    const Program &program(const std::string &name, const Json &params,
                           const TranslateOptions &translate = {},
                           std::int64_t maxInstructions = 0);

    /**
     * The program() of every request, in request order. The calling
     * thread canonicalizes each request and looks its key up in the
     * memo. The misses, one build per distinct key, run on
     * min(@p threads, misses) threads (0 = hardware concurrency, as
     * SweepOptions::threads; 1 or a single miss builds on the calling
     * thread), each into its own slot, and the calling thread memoizes
     * them once every build has finished.
     *
     * A request that fails (an unknown name, bad params or a throwing
     * build) fails the call with the error of the first failing
     * request in request order, at every thread count, after every
     * build has finished. The builds that succeeded stay memoized; a
     * failed key is not, so asking again retries it.
     */
    std::vector<const Program *>
    programs(const std::vector<ProgramRequest> &requests,
             std::int32_t threads);

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
