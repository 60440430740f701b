#include "translate/translate.h"

#include "circuit/lowering.h"
#include "common/error.h"

namespace lsqca {
namespace {

/** Stateful emitter walking one circuit. */
class Emitter
{
  public:
    Emitter(const Circuit &circuit, const TranslateOptions &options)
        : circ_(circuit), opts_(options),
          prog_(circuit.numQubits())
    {
        LSQCA_REQUIRE(opts_.crSlots >= 2,
                      "translation needs at least two CR slots");
        for (const auto &r : circ_.registers())
            prog_.addRegister(r.name, r.first, r.size);
        // Circuit classical bits map 1:1 onto the first program values.
        for (std::int32_t i = 0; i < circ_.numClassicalBits(); ++i)
            prog_.newValue();
    }

    Program
    run()
    {
        // Allocate the stream once. Grown by doubling, a full-length
        // SELECT program is copied about twice and faults in about
        // twice its final size in fresh pages, which cost more setup
        // time than this extra pass over the gates.
        std::int64_t expected = 0;
        for (const auto &g : circ_.gates())
            expected += instructionsFor(g);
        prog_.reserve(expected);
        for (const auto &g : circ_.gates()) {
            LSQCA_REQUIRE(isCliffordTGate(g.kind),
                          std::string("translate: non-Clifford+T gate: ") +
                              gateName(g.kind));
            emitGate(g);
        }
        LSQCA_ASSERT(prog_.size() == expected,
                     "instructionsFor() disagrees with emitGate()");
        return std::move(prog_);
    }

  private:
    /** Instructions emitGate() appends for Clifford+T gate @p g. */
    std::int64_t
    instructionsFor(const Gate &g) const
    {
        const std::int64_t guarded = g.condBit == kNoBit ? 0 : 1;
        switch (g.kind) {
          case GateKind::X:
          case GateKind::Y:
          case GateKind::Z:
            return 0;
          case GateKind::H:
          case GateKind::S:
          case GateKind::Sdg:
            return guarded + (opts_.inMemoryOps ? 1 : 3);
          case GateKind::T:
          case GateKind::Tdg:
            return opts_.inMemoryOps ? 5 : 7;
          default:
            return guarded + 1;
        }
    }

    /** Next CR slot in round-robin order. */
    std::int32_t
    nextSlot()
    {
        const std::int32_t slot = rrSlot_;
        rrSlot_ = (rrSlot_ + 1) % opts_.crSlots;
        return slot;
    }

    void
    emit(Instruction inst)
    {
        prog_.append(inst);
    }

    /** Guard the following instruction on classical bit @p cond. */
    void
    guard(ClassicalBit cond)
    {
        if (cond == kNoBit)
            return;
        Instruction sk;
        sk.op = Opcode::SK;
        sk.v0 = cond;
        emit(sk);
    }

    /** One-memory-operand instruction. */
    void
    emitM(Opcode op, QubitId m, std::int32_t v = -1)
    {
        Instruction inst;
        inst.op = op;
        inst.m0 = m;
        inst.v0 = v;
        emit(inst);
    }

    /** One-register-operand instruction. */
    void
    emitC(Opcode op, std::int32_t c, std::int32_t v = -1)
    {
        Instruction inst;
        inst.op = op;
        inst.c0 = c;
        inst.v0 = v;
        emit(inst);
    }

    void
    emitLoad(QubitId m, std::int32_t c)
    {
        Instruction inst;
        inst.op = Opcode::LD;
        inst.m0 = m;
        inst.c0 = c;
        emit(inst);
    }

    void
    emitStore(std::int32_t c, QubitId m)
    {
        Instruction inst;
        inst.op = Opcode::ST;
        inst.m0 = m;
        inst.c0 = c;
        emit(inst);
    }

    /** In-CR single-qubit op bracketed by LD/ST (ablation path). */
    void
    emitLoaded1q(Opcode op_c, QubitId q, std::int32_t v = -1)
    {
        const std::int32_t slot = nextSlot();
        emitLoad(q, slot);
        emitC(op_c, slot, v);
        emitStore(slot, q);
    }

    /**
     * T / Tdg teleportation gadget. Tdg differs from T only in the Pauli
     * frame of the correction, so both emit the same instruction shape.
     */
    void
    emitTGadget(QubitId q)
    {
        const std::int32_t magic_slot = nextSlot();
        const std::int32_t v_zz = prog_.newValue();
        const std::int32_t v_x = prog_.newValue();
        if (opts_.inMemoryOps) {
            emitC(Opcode::PM, magic_slot);
            Instruction zz;
            zz.op = Opcode::MZZ_M;
            zz.c0 = magic_slot;
            zz.m0 = q;
            zz.v0 = v_zz;
            emit(zz);
            emitC(Opcode::MX_C, magic_slot, v_x);
            guard(v_zz);
            emitM(Opcode::PH_M, q);
        } else {
            const std::int32_t target_slot = nextSlot();
            emitLoad(q, target_slot);
            emitC(Opcode::PM, magic_slot);
            Instruction zz;
            zz.op = Opcode::MZZ_C;
            zz.c0 = target_slot;
            zz.c1 = magic_slot;
            zz.v0 = v_zz;
            emit(zz);
            emitC(Opcode::MX_C, magic_slot, v_x);
            guard(v_zz);
            emitC(Opcode::PH_C, target_slot);
            emitStore(target_slot, q);
        }
    }

    void
    emitGate(const Gate &g)
    {
        const QubitId q0 = g.qubits[0];
        const QubitId q1 = g.qubits[1];
        switch (g.kind) {
          case GateKind::X:
          case GateKind::Y:
          case GateKind::Z:
            // Pauli frame update: no instruction, no latency.
            return;
          case GateKind::H:
            guard(g.condBit);
            if (opts_.inMemoryOps)
                emitM(Opcode::HD_M, q0);
            else
                emitLoaded1q(Opcode::HD_C, q0);
            return;
          case GateKind::S:
          case GateKind::Sdg:
            // Sdg == S followed by a frame Z.
            guard(g.condBit);
            if (opts_.inMemoryOps)
                emitM(Opcode::PH_M, q0);
            else
                emitLoaded1q(Opcode::PH_C, q0);
            return;
          case GateKind::T:
          case GateKind::Tdg:
            LSQCA_REQUIRE(g.condBit == kNoBit,
                          "conditioned T is not supported");
            emitTGadget(q0);
            return;
          case GateKind::CX:
          case GateKind::CZ: {
            guard(g.condBit);
            Instruction inst;
            inst.op =
                g.kind == GateKind::CX ? Opcode::CX : Opcode::CZ;
            inst.m0 = q0;
            inst.m1 = q1;
            emit(inst);
            return;
          }
          case GateKind::PrepZ:
            guard(g.condBit);
            emitM(Opcode::PZ_M, q0);
            return;
          case GateKind::PrepX:
            guard(g.condBit);
            emitM(Opcode::PP_M, q0);
            return;
          case GateKind::MeasZ:
            guard(g.condBit);
            emitM(Opcode::MZ_M, q0, g.cbit);
            return;
          case GateKind::MeasX:
            guard(g.condBit);
            emitM(Opcode::MX_M, q0, g.cbit);
            return;
          default:
            throw ConfigError(std::string("translate: unsupported gate ") +
                              gateName(g.kind));
        }
    }

    const Circuit &circ_;
    TranslateOptions opts_;
    Program prog_;
    std::int32_t rrSlot_ = 0;
};

} // namespace

Program
translate(const Circuit &circuit, const TranslateOptions &options)
{
    return Emitter(circuit, options).run();
}

} // namespace lsqca
