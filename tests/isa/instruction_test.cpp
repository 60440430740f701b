#include "isa/instruction.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/json.h"

namespace lsqca {
namespace {

TEST(OpcodeInfo, TableILatencies)
{
    // Fixed latencies straight from Table I.
    EXPECT_EQ(opcodeInfo(Opcode::PZ_C).latency, 0);
    EXPECT_EQ(opcodeInfo(Opcode::PP_C).latency, 0);
    EXPECT_EQ(opcodeInfo(Opcode::HD_C).latency, 3);
    EXPECT_EQ(opcodeInfo(Opcode::PH_C).latency, 2);
    EXPECT_EQ(opcodeInfo(Opcode::MX_C).latency, 0);
    EXPECT_EQ(opcodeInfo(Opcode::MZ_C).latency, 0);
    EXPECT_EQ(opcodeInfo(Opcode::MXX_C).latency, 1);
    EXPECT_EQ(opcodeInfo(Opcode::MZZ_C).latency, 1);
    EXPECT_EQ(opcodeInfo(Opcode::PZ_M).latency, 0);
    EXPECT_EQ(opcodeInfo(Opcode::MX_M).latency, 0);
}

TEST(OpcodeInfo, VariableLatencyOpcodes)
{
    for (Opcode op : {Opcode::LD, Opcode::ST, Opcode::PM, Opcode::SK,
                      Opcode::HD_M, Opcode::PH_M, Opcode::MXX_M,
                      Opcode::MZZ_M, Opcode::CX, Opcode::CZ})
        EXPECT_EQ(opcodeInfo(op).latency, kVariableLatency)
            << mnemonic(op);
}

TEST(OpcodeInfo, ClassesMatchTableI)
{
    EXPECT_EQ(opcodeInfo(Opcode::LD).cls, OpClass::Memory);
    EXPECT_EQ(opcodeInfo(Opcode::ST).cls, OpClass::Memory);
    EXPECT_EQ(opcodeInfo(Opcode::PM).cls, OpClass::Preparation);
    EXPECT_EQ(opcodeInfo(Opcode::SK).cls, OpClass::Control);
    EXPECT_EQ(opcodeInfo(Opcode::HD_M).cls, OpClass::InMemoryUnitary);
    EXPECT_EQ(opcodeInfo(Opcode::MZZ_M).cls,
              OpClass::InMemoryMeasurement);
    EXPECT_EQ(opcodeInfo(Opcode::CX).cls, OpClass::OptimizedUnitary);
}

TEST(OpcodeInfo, MnemonicsAreUnique)
{
    std::set<std::string> names;
    for (int i = 0; i < kNumOpcodes; ++i)
        names.insert(mnemonic(static_cast<Opcode>(i)));
    EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumOpcodes));
}

TEST(OpcodeInfo, OperandArities)
{
    EXPECT_EQ(opcodeInfo(Opcode::LD).numMem, 1);
    EXPECT_EQ(opcodeInfo(Opcode::LD).numReg, 1);
    EXPECT_EQ(opcodeInfo(Opcode::MZZ_C).numReg, 2);
    EXPECT_EQ(opcodeInfo(Opcode::MZZ_C).numVal, 1);
    EXPECT_EQ(opcodeInfo(Opcode::MZZ_M).numMem, 1);
    EXPECT_EQ(opcodeInfo(Opcode::MZZ_M).numReg, 1);
    EXPECT_EQ(opcodeInfo(Opcode::CX).numMem, 2);
    EXPECT_EQ(opcodeInfo(Opcode::SK).numVal, 1);
}

// Long sweeps keep millions of instructions resident (fig15 --full's
// five programs hold 8.7M); the record must not pad back out.
static_assert(sizeof(Instruction) == 16);

// A job-cache resubmit parses every cached entry and every BENCH
// document holds thousands of numbers: a Json value holds one payload
// (112 bytes when each kind had its own field).
static_assert(sizeof(Json) <= 48);

TEST(Instruction, LoadStoreRendering)
{
    Instruction ld;
    ld.op = Opcode::LD;
    ld.m0 = 12;
    ld.c0 = 1;
    EXPECT_EQ(ld.str(), "LD m12, c1");

    Instruction st;
    st.op = Opcode::ST;
    st.m0 = 12;
    st.c0 = 0;
    EXPECT_EQ(st.str(), "ST c0, m12");
}

TEST(Instruction, InMemoryMeasurementRendering)
{
    Instruction zz;
    zz.op = Opcode::MZZ_M;
    zz.c0 = 1;
    zz.m0 = 40;
    zz.v0 = 3;
    EXPECT_EQ(zz.str(), "MZZ.M c1, m40 -> v3");
}

TEST(Instruction, SkipRendering)
{
    Instruction sk;
    sk.op = Opcode::SK;
    sk.v0 = 9;
    EXPECT_EQ(sk.str(), "SK v9");
}

TEST(Instruction, CxRendering)
{
    Instruction cx;
    cx.op = Opcode::CX;
    cx.m0 = 3;
    cx.m1 = 7;
    EXPECT_EQ(cx.str(), "CX m3, m7");
}

} // namespace
} // namespace lsqca
