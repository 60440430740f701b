#include "isa/program.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <mutex>
#include <sstream>

#include "common/error.h"

namespace lsqca {
namespace {

/** The extent of @p code [0, @p limit), value slots included. */
PrefixExtent
scanPrefix(const std::vector<Instruction> &code, std::int64_t limit)
{
    const auto n = static_cast<std::size_t>(limit);
    LSQCA_REQUIRE(limit < std::numeric_limits<std::int32_t>::max(),
                  "program prefix too long for value slots");
    PrefixExtent extent;
    auto slots = std::make_shared<ValueSlots>();
    std::vector<std::int32_t> &slotOf = slots->slotOf;
    // First pass: the highest CR slot, and each value's last use,
    // kept in slotOf as -2 - index so every unassigned entry is
    // negative.
    for (std::size_t i = 0; i < n; ++i) {
        const Instruction &inst = code[i];
        extent.maxSlot = std::max({extent.maxSlot, inst.c0, inst.c1});
        if (inst.v0 < 0)
            continue;
        const auto v = static_cast<std::size_t>(inst.v0);
        if (v >= slotOf.size())
            slotOf.resize(v + 1, -1);
        slotOf[v] = -2 - static_cast<std::int32_t>(i);
    }
    // Second pass: hand a slot out at a value's first use and take it
    // back at its last, which the slot remembers.
    std::vector<std::int32_t> lastUseOf; // per slot
    std::vector<std::int32_t> released;
    for (std::size_t i = 0; i < n; ++i) {
        const Instruction &inst = code[i];
        if (inst.v0 < 0)
            continue;
        std::int32_t &slot = slotOf[static_cast<std::size_t>(inst.v0)];
        if (slot < 0) {
            const std::int32_t lastUse = -2 - slot;
            // A first use that reads must see 0: only a fresh slot does.
            if (inst.op != Opcode::SK && !released.empty()) {
                slot = released.back();
                released.pop_back();
            } else {
                slot = slots->count++;
                lastUseOf.push_back(0);
            }
            lastUseOf[static_cast<std::size_t>(slot)] = lastUse;
        }
        if (lastUseOf[static_cast<std::size_t>(slot)] ==
            static_cast<std::int32_t>(i))
            released.push_back(slot);
    }
    for (std::int32_t &slot : slotOf)
        slot = std::max(slot, 0); // never named: never read either
    extent.values = std::move(slots);
    return extent;
}

} // namespace

Program::Program(std::int32_t num_variables)
    : numVariables_(num_variables)
{
    LSQCA_REQUIRE(num_variables >= 0, "negative variable count");
}

void
Program::addRegister(const std::string &name, std::int32_t first,
                     std::int32_t size)
{
    LSQCA_REQUIRE(first >= 0 && size > 0 &&
                      first + size <= numVariables_,
                  "variable register out of range: " + name);
    regs_.push_back({name, first, size});
}

std::int32_t
Program::registerOf(std::int32_t m) const
{
    for (std::size_t i = 0; i < regs_.size(); ++i)
        if (m >= regs_[i].first && m < regs_[i].first + regs_[i].size)
            return static_cast<std::int32_t>(i);
    return -1;
}

void
Program::append(const Instruction &inst)
{
    const OpcodeInfo &info = opcodeInfo(inst.op);
    auto checkMem = [&](std::int32_t m) {
        LSQCA_REQUIRE(m >= 0 && m < numVariables_,
                      std::string(info.mnemonic) +
                          ": memory operand out of range");
    };
    if (info.numMem >= 1)
        checkMem(inst.m0);
    if (info.numMem >= 2) {
        checkMem(inst.m1);
        LSQCA_REQUIRE(inst.m0 != inst.m1,
                      std::string(info.mnemonic) +
                          ": memory operands must differ");
    }
    if (info.numReg >= 1)
        LSQCA_REQUIRE(inst.c0 >= 0, std::string(info.mnemonic) +
                                        ": missing register operand");
    if (info.numReg >= 2)
        LSQCA_REQUIRE(inst.c1 >= 0 && inst.c1 != inst.c0,
                      std::string(info.mnemonic) +
                          ": invalid second register operand");
    if (info.numVal >= 1)
        LSQCA_REQUIRE(inst.v0 >= 0 && inst.v0 < numValues_,
                      std::string(info.mnemonic) +
                          ": value operand not allocated");
    code_.push_back(inst);
    refCounts_ = nullptr;
    prefixExtents_ = nullptr;
    streamIndex_ = nullptr;
}

std::int64_t
Program::countedInstructions() const
{
    std::int64_t count = 0;
    for (const auto &inst : code_)
        if (inst.op != Opcode::LD && inst.op != Opcode::ST)
            ++count;
    return count;
}

std::int64_t
Program::magicCount() const
{
    std::int64_t count = 0;
    for (const auto &inst : code_)
        if (inst.op == Opcode::PM)
            ++count;
    return count;
}

std::vector<std::int64_t>
Program::referenceCounts() const
{
    if (auto cached = std::atomic_load_explicit(
            &refCounts_, std::memory_order_acquire))
        return *cached;
    std::vector<std::int64_t> counts(
        static_cast<std::size_t>(numVariables_), 0);
    for (const auto &inst : code_) {
        const OpcodeInfo &info = opcodeInfo(inst.op);
        if (info.numMem >= 1)
            ++counts[static_cast<std::size_t>(inst.m0)];
        if (info.numMem >= 2)
            ++counts[static_cast<std::size_t>(inst.m1)];
    }
    auto memo = std::make_shared<const std::vector<std::int64_t>>(
        std::move(counts));
    std::atomic_store_explicit(&refCounts_, memo,
                               std::memory_order_release);
    return *memo;
}

PrefixExtent
Program::prefixExtent(std::int64_t limit) const
{
    using Memo = std::map<std::int64_t, PrefixExtent>;
    limit = std::clamp<std::int64_t>(limit, 0, size());
    auto memo = std::atomic_load_explicit(&prefixExtents_,
                                          std::memory_order_acquire);
    if (memo) {
        const auto found = memo->find(limit);
        if (found != memo->end())
            return found->second;
    }
    // One table build per program at a time: sweep workers that start on
    // the same program at once would each build a value-sized slot
    // table (without this lock, fig15 --full's peak RSS read 5% higher
    // on 4 vCPUs). Programs hash to lock stripes, so different
    // programs rarely wait for each other. Every publisher of this
    // program's memo holds the lock, so a plain copy-and-store cannot
    // drop another limit's entry.
    static std::array<std::mutex, 64> building;
    const auto stripe = reinterpret_cast<std::uintptr_t>(this) / 16;
    const std::lock_guard<std::mutex> lock(
        building[stripe % building.size()]);
    memo = std::atomic_load_explicit(&prefixExtents_,
                                     std::memory_order_acquire);
    if (memo) {
        const auto found = memo->find(limit);
        if (found != memo->end())
            return found->second;
    }
    const PrefixExtent extent = scanPrefix(code_, limit);
    auto next = memo ? std::make_shared<Memo>(*memo)
                     : std::make_shared<Memo>();
    next->emplace(limit, extent);
    std::atomic_store_explicit(&prefixExtents_,
                               std::shared_ptr<const Memo>(std::move(next)),
                               std::memory_order_release);
    return extent;
}

std::shared_ptr<const StreamIndex>
Program::streamIndex() const
{
    if (auto cached = std::atomic_load_explicit(
            &streamIndex_, std::memory_order_acquire))
        return cached;
    auto index = std::make_shared<StreamIndex>();
    const std::size_t n = code_.size();
    index->countedPrefix.resize(n + 1, 0);
    index->pmPrefix.resize(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const Instruction &inst = code_[i];
        index->countedPrefix[i + 1] =
            index->countedPrefix[i] +
            (inst.op != Opcode::LD && inst.op != Opcode::ST);
        index->pmPrefix[i + 1] =
            index->pmPrefix[i] + (inst.op == Opcode::PM);
        if (inst.op == Opcode::PM || opcodeInfo(inst.op).numMem >= 1)
            index->memOps.push_back(static_cast<std::int64_t>(i));
    }
    std::shared_ptr<const StreamIndex> memo = std::move(index);
    std::atomic_store_explicit(&streamIndex_, memo,
                               std::memory_order_release);
    return memo;
}

std::string
Program::disassemble(std::size_t max_lines) const
{
    std::ostringstream oss;
    oss << "; lsqca program: " << numVariables_ << " variables, "
        << code_.size() << " instructions, " << magicCount()
        << " magic states\n";
    for (const auto &r : regs_)
        oss << "; register " << r.name << ": m" << r.first << "..m"
            << (r.first + r.size - 1) << "\n";
    std::size_t line = 0;
    for (const auto &inst : code_) {
        if (max_lines != 0 && line >= max_lines) {
            oss << "; ... " << (code_.size() - line)
                << " more instructions\n";
            break;
        }
        oss << inst.str() << "\n";
        ++line;
    }
    return oss.str();
}

} // namespace lsqca
