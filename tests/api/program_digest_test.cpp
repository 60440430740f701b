/**
 * @file
 * Golden program digests: every program that the paper sweeps (fig13,
 * fig14, fig15, fig15 --full, ablation) resolve through the benchmark
 * registry, hashed with FNV-1a over its instruction fields, registers,
 * variable count and value count. Any change to synthesis, lowering or
 * translation that alters one instruction of one program fails here,
 * naming the program's registry key.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "api/paper_specs.h"
#include "api/registry.h"
#include "api/spec.h"
#include "common/hash.h"

namespace lsqca::api {
namespace {

/** FNV-1a over a program's content, fixed-width little-endian fields. */
class ProgramHasher
{
  public:
    void
    mix(std::int64_t value)
    {
        char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<char>(
                (static_cast<std::uint64_t>(value) >> (8 * i)) & 0xff);
        hash_ = fnv1a64(std::string_view(bytes, 8), hash_);
    }

    void
    mix(const std::string &text)
    {
        mix(static_cast<std::int64_t>(text.size()));
        hash_ = fnv1a64(text, hash_);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = kFnv1a64Offset;
};

std::string
programDigest(const Program &program)
{
    ProgramHasher h;
    h.mix(program.numVariables());
    h.mix(program.numValues());
    h.mix(static_cast<std::int64_t>(program.registers().size()));
    for (const VariableRegister &r : program.registers()) {
        h.mix(r.name);
        h.mix(r.first);
        h.mix(r.size);
    }
    h.mix(program.size());
    for (const Instruction &inst : program.instructions()) {
        h.mix(static_cast<std::int64_t>(inst.op));
        h.mix(inst.m0);
        h.mix(inst.m1);
        h.mix(inst.c0);
        h.mix(inst.c1);
        h.mix(inst.v0);
    }
    return hashToHex(h.value());
}

/** "bench params mem|ldst crN": what the registry memoizes on. */
std::string
programKey(const ExpandedJob &job)
{
    return job.bench + " " + job.params.dump(0) +
           (job.translate.inMemoryOps ? " mem" : " ldst") + " cr" +
           std::to_string(job.translate.crSlots);
}

/**
 * (key, digest) for each distinct program @p spec resolves, in
 * first-use order. Each program comes from a fresh registry and is
 * dropped once hashed, so fig15 --full never holds all of its
 * full-length SELECT programs at once.
 */
std::vector<std::pair<std::string, std::string>>
specDigests(const SweepSpec &spec)
{
    std::vector<std::pair<std::string, std::string>> digests;
    for (const ExpandedJob &job :
         expandSpec(spec, BenchmarkRegistry::paper())) {
        const std::string key = programKey(job);
        const bool seen =
            std::any_of(digests.begin(), digests.end(),
                        [&](const auto &d) { return d.first == key; });
        if (seen)
            continue;
        BenchmarkRegistry registry = BenchmarkRegistry::paper();
        digests.emplace_back(
            key, programDigest(registry.program(job.bench, job.params,
                                                job.translate)));
    }
    return digests;
}

/** Compare against the golden table; on mismatch print the new one. */
void
expectDigests(const SweepSpec &spec,
              const std::vector<std::pair<std::string, std::string>> &golden)
{
    const auto actual = specDigests(spec);
    std::string table;
    for (const auto &[key, digest] : actual)
        table += "        {R\"(" + key + ")\", \"" + digest + "\"},\n";
    EXPECT_EQ(actual, golden) << spec.name << " digests now:\n" << table;
}

TEST(ProgramDigests, Fig13)
{
    expectDigests(specs::fig13(), {
        {R"(adder {"width":144} mem cr2)", "a919d78f215484ce"},
        {R"(bv {"num_qubits":280,"secret":-1} mem cr2)", "216b5550a797e0e4"},
        {R"(cat {"num_qubits":260} mem cr2)", "2accc3ed55eace9f"},
        {R"(ghz {"num_qubits":127} mem cr2)", "dfb4257fbcefd441"},
        {R"(multiplier {"width_a":81,"width_b":78} mem cr2)",
         "65200813759a98da"},
        {R"(square_root {"width":10,"target":49,"iterations":2} mem cr2)",
         "65c0a3207fc45fac"},
        {R"(select {"width":11,"max_terms":0,"control_copies":1} mem cr2)",
         "48ac3b4e3dae76ef"},
    });
}

TEST(ProgramDigests, Fig14)
{
    expectDigests(specs::fig14(), {
        {R"(adder {"width":144} mem cr2)", "a919d78f215484ce"},
        {R"(bv {"num_qubits":280,"secret":-1} mem cr2)", "216b5550a797e0e4"},
        {R"(cat {"num_qubits":260} mem cr2)", "2accc3ed55eace9f"},
        {R"(ghz {"num_qubits":127} mem cr2)", "dfb4257fbcefd441"},
        {R"(multiplier {"width_a":81,"width_b":78} mem cr2)",
         "65200813759a98da"},
        {R"(square_root {"width":10,"target":49,"iterations":2} mem cr2)",
         "65c0a3207fc45fac"},
        {R"(select {"width":11,"max_terms":0,"control_copies":1} mem cr2)",
         "48ac3b4e3dae76ef"},
    });
}

TEST(ProgramDigests, Fig15)
{
    expectDigests(specs::fig15(), {
        {R"(select {"width":21,"max_terms":1200,"control_copies":1} mem cr2)",
         "5f79b86cd1f18327"},
        {R"(select {"width":41,"max_terms":1200,"control_copies":1} mem cr2)",
         "4e1b976d0c518d26"},
        {R"(select {"width":61,"max_terms":1200,"control_copies":1} mem cr2)",
         "8387414ce4334344"},
        {R"(select {"width":81,"max_terms":1200,"control_copies":1} mem cr2)",
         "fc1b15e09fbce7b2"},
        {R"(select {"width":101,"max_terms":1200,"control_copies":1} mem cr2)",
         "ab8e966adc66f49b"},
    });
}

TEST(ProgramDigests, Fig15Full)
{
    expectDigests(specs::fig15(true), {
        {R"(select {"width":21,"max_terms":0,"control_copies":1} mem cr2)",
         "1879757aca14d54b"},
        {R"(select {"width":41,"max_terms":0,"control_copies":1} mem cr2)",
         "06fa1f24d05b28e1"},
        {R"(select {"width":61,"max_terms":0,"control_copies":1} mem cr2)",
         "1eb3b3f4e8870f3d"},
        {R"(select {"width":81,"max_terms":0,"control_copies":1} mem cr2)",
         "4c4e511e14ed9e3d"},
        {R"(select {"width":101,"max_terms":0,"control_copies":1} mem cr2)",
         "1761a012dd919c43"},
    });
}

TEST(ProgramDigests, Ablation)
{
    expectDigests(specs::ablation(), {
        {R"(multiplier {"width_a":81,"width_b":78} mem cr2)",
         "65200813759a98da"},
        {R"(multiplier {"width_a":81,"width_b":78} ldst cr2)",
         "4fde1a7dd58e01af"},
        {R"(select {"width":11,"max_terms":0,"control_copies":1} mem cr2)",
         "48ac3b4e3dae76ef"},
        {R"(select {"width":11,"max_terms":0,"control_copies":1} ldst cr2)",
         "121439aeb87a14bf"},
        {R"(cat {"num_qubits":260} mem cr2)", "2accc3ed55eace9f"},
        {R"(cat {"num_qubits":260} ldst cr2)", "7175b98c3ce6e203"},
    });
}

} // namespace
} // namespace lsqca::api
