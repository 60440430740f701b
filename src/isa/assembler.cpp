#include "isa/assembler.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/error.h"

namespace lsqca {
namespace {

/** Mnemonic -> opcode lookup built once from the opcode table. */
const std::unordered_map<std::string, Opcode> &
mnemonicTable()
{
    static const auto table = [] {
        std::unordered_map<std::string, Opcode> map;
        for (int i = 0; i < kNumOpcodes; ++i)
            map.emplace(mnemonic(static_cast<Opcode>(i)),
                        static_cast<Opcode>(i));
        return map;
    }();
    return table;
}

[[noreturn]] void
fail(std::size_t line_no, const std::string &msg)
{
    throw ConfigError("assembler: line " + std::to_string(line_no + 1) +
                      ": " + msg);
}

/** One parsed operand: a prefixed index like m12 / c0 / v3. */
struct Operand
{
    char prefix;
    std::int32_t index;
};

std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::string current;
    for (char c : line) {
        if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
            if (!current.empty()) {
                tokens.push_back(current);
                current.clear();
            }
        } else {
            current += c;
        }
    }
    if (!current.empty())
        tokens.push_back(current);
    return tokens;
}

/**
 * The decimal index @p digits, which must lie in [0, @p limit): every
 * index the assembler reads goes through here before it is stored, so
 * none wraps or escapes as std::out_of_range. @p what names the text
 * in the error, which gives the line.
 */
std::int32_t
parseIndex(const std::string &digits, std::int64_t limit,
           const std::string &what, std::size_t line_no)
{
    if (digits.empty())
        fail(line_no, what + " has no index");
    std::int64_t value = 0;
    for (char c : digits) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            fail(line_no, what + " has a non-numeric index");
        value = value * 10 + (c - '0');
        if (value >= limit)
            fail(line_no, what + " is out of range: indices must be "
                                 "below " + std::to_string(limit));
    }
    return static_cast<std::int32_t>(value);
}

/**
 * Bound on m and v indices and on the variable count: the count is
 * the largest m index plus one, and both must fit std::int32_t.
 */
constexpr std::int64_t kMaxIndex = std::numeric_limits<std::int32_t>::max();

Operand
parseOperand(const std::string &token, std::size_t line_no)
{
    if (token.size() < 2)
        fail(line_no, "malformed operand '" + token + "'");
    const char prefix = token[0];
    if (prefix != 'm' && prefix != 'c' && prefix != 'v')
        fail(line_no, "operand '" + token +
                          "' must start with m, c, or v");
    const std::int64_t limit = prefix == 'c' ? kMaxCrSlots : kMaxIndex;
    return {prefix, parseIndex(token.substr(1), limit,
                               "operand '" + token + "'", line_no)};
}

/** Parse "; lsqca program: N variables, ..." -> N (or -1). */
std::int32_t
parseHeaderVariables(const std::string &line, std::size_t line_no)
{
    const std::string key = "lsqca program:";
    const auto pos = line.find(key);
    if (pos == std::string::npos)
        return -1;
    const auto tokens = tokenize(line.substr(pos + key.size()));
    return parseIndex(tokens.empty() ? std::string() : tokens[0],
                      kMaxIndex, "header variable count", line_no);
}

/** Parse "; register name: mA..mB" -> (name, A, B) if present. */
bool
parseRegisterComment(const std::string &line, std::size_t line_no,
                     std::string &name, std::int32_t &first,
                     std::int32_t &last)
{
    const std::string key = "register ";
    const auto pos = line.find(key);
    if (pos == std::string::npos)
        return false;
    const auto colon = line.find(':', pos);
    if (colon == std::string::npos)
        return false;
    name = line.substr(pos + key.size(), colon - pos - key.size());
    std::string rest = line.substr(colon + 1);
    const auto m1 = rest.find('m');
    const auto dots = rest.find("..");
    if (m1 == std::string::npos || dots == std::string::npos)
        return false;
    const auto m2 = rest.find('m', dots);
    if (m2 == std::string::npos)
        return false;
    const std::string what = "register " + name;
    first = parseIndex(rest.substr(m1 + 1, dots - m1 - 1), kMaxIndex,
                       what, line_no);
    const auto tail = tokenize(rest.substr(m2 + 1));
    last = parseIndex(tail.empty() ? std::string() : tail[0], kMaxIndex,
                      what, line_no);
    return true;
}

} // namespace

Program
assemble(const std::string &text)
{
    struct Pending
    {
        Opcode op;
        std::vector<Operand> operands;
        std::size_t lineNo;
    };

    struct Register
    {
        std::string name;
        std::int32_t first;
        std::int32_t last;
        std::size_t lineNo;
    };

    std::int32_t num_variables = -1;
    std::int32_t max_variable = -1;
    std::int32_t max_value = -1;
    std::vector<Register> registers;
    std::vector<Pending> pending;

    std::istringstream stream(text);
    std::string line;
    std::size_t line_no = 0;
    for (; std::getline(stream, line); ++line_no) {
        // Strip comments; harvest the directives they may carry.
        const auto semi = line.find(';');
        if (semi != std::string::npos) {
            const std::string comment = line.substr(semi);
            if (num_variables < 0)
                num_variables = parseHeaderVariables(comment, line_no);
            Register reg{{}, 0, 0, line_no};
            if (parseRegisterComment(comment, line_no, reg.name,
                                     reg.first, reg.last))
                registers.push_back(std::move(reg));
            line = line.substr(0, semi);
        }
        auto tokens = tokenize(line);
        if (tokens.empty())
            continue;
        // "->" is sugar between operands; drop it.
        std::vector<std::string> kept;
        for (auto &token : tokens)
            if (token != "->")
                kept.push_back(std::move(token));

        const auto it = mnemonicTable().find(kept[0]);
        if (it == mnemonicTable().end())
            fail(line_no, "unknown mnemonic '" + kept[0] + "'");
        Pending inst{it->second, {}, line_no};
        for (std::size_t i = 1; i < kept.size(); ++i) {
            const Operand operand = parseOperand(kept[i], line_no);
            if (operand.prefix == 'm')
                max_variable = std::max(max_variable, operand.index);
            if (operand.prefix == 'v')
                max_value = std::max(max_value, operand.index);
            inst.operands.push_back(operand);
        }
        pending.push_back(std::move(inst));
    }

    if (num_variables < 0)
        num_variables = max_variable + 1;
    LSQCA_REQUIRE(num_variables > max_variable,
                  "assembler: header variable count smaller than the "
                  "largest m-operand");

    Program program(num_variables);
    for (const Register &reg : registers) {
        try {
            program.addRegister(reg.name, reg.first,
                                reg.last - reg.first + 1);
        } catch (const ConfigError &e) {
            fail(reg.lineNo, e.what());
        }
    }
    for (std::int32_t v = 0; v <= max_value; ++v)
        program.newValue();

    for (const auto &inst : pending) {
        const OpcodeInfo &info = opcodeInfo(inst.op);
        Instruction out;
        out.op = inst.op;
        int mem_seen = 0;
        int reg_seen = 0;
        int val_seen = 0;
        for (const Operand &operand : inst.operands) {
            switch (operand.prefix) {
              case 'm':
                (mem_seen++ == 0 ? out.m0 : out.m1) = operand.index;
                break;
              case 'c': // below kMaxCrSlots: parseOperand checked
                (reg_seen++ == 0 ? out.c0 : out.c1) =
                    static_cast<std::int8_t>(operand.index);
                break;
              default:
                ++val_seen;
                out.v0 = operand.index;
                break;
            }
        }
        if (mem_seen != info.numMem || reg_seen != info.numReg ||
            val_seen != info.numVal) {
            fail(inst.lineNo,
                 std::string("operand mismatch for ") + info.mnemonic +
                     ": expected " + std::to_string(info.numMem) +
                     "m/" + std::to_string(info.numReg) + "c/" +
                     std::to_string(info.numVal) + "v");
        }
        try {
            program.append(out);
        } catch (const ConfigError &e) {
            fail(inst.lineNo, e.what());
        }
    }
    return program;
}

} // namespace lsqca
