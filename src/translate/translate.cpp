#include "translate/translate.h"

#include "common/error.h"

namespace lsqca {
namespace {

/** Instructions Emitter::append() emits for Clifford+T gate @p g. */
std::int64_t
instructionsFor(const Gate &g, const TranslateOptions &options)
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
        return guarded + (options.inMemoryOps ? 1 : 3);
      case GateKind::T:
      case GateKind::Tdg:
        return options.inMemoryOps ? 5 : 7;
      default:
        return guarded + 1;
    }
}

/**
 * Stateful emitter building one program, gate by gate. As a GateSink it
 * takes lowerGate()'s expansions directly.
 */
class Emitter : public GateSink<Emitter>
{
  public:
    /**
     * A program over @p circuit's registers, plus the ancilla register
     * when @p plan borrows one. Its first plan.numBits values are the
     * lowered circuit's classical bits, and plan.weight instructions
     * are reserved: grown by doubling, a full-length SELECT program is
     * copied about twice and faults in about twice its final size in
     * fresh pages, which cost more setup time than the counting pass.
     */
    Emitter(const Circuit &circuit, const TranslateOptions &options,
            const LoweringPlan &plan)
        : opts_(options), plan_(plan),
          prog_(circuit.numQubits() + (plan.ancilla == kNoQubit ? 0 : 1)),
          nextBit_(circuit.numClassicalBits())
    {
        LSQCA_REQUIRE(opts_.crSlots >= 2,
                      "translation needs at least two CR slots");
        for (const auto &r : circuit.registers())
            prog_.addRegister(r.name, r.first, r.size);
        if (plan.ancilla != kNoQubit)
            prog_.addRegister(kCcxAncillaRegister, plan.ancilla, 1);
        for (std::int32_t i = 0; i < plan.numBits; ++i)
            prog_.newValue();
        prog_.reserve(plan.weight);
    }

    /** Emit the instructions for Clifford+T gate @p g. */
    void
    append(const Gate &g)
    {
        LSQCA_REQUIRE(isCliffordTGate(g.kind),
                      std::string("translate: non-Clifford+T gate: ") +
                          gateName(g.kind));
        emitGate(g);
    }

    /** The next un-AND outcome bit, numbered after the source's bits. */
    ClassicalBit newBit() { return nextBit_++; }

    Program
    finish()
    {
        LSQCA_ASSERT(prog_.size() == plan_.weight &&
                         nextBit_ == plan_.numBits,
                     "the counting pass disagrees with emission");
        return std::move(prog_);
    }

  private:
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

    TranslateOptions opts_;
    LoweringPlan plan_;
    Program prog_;
    ClassicalBit nextBit_;
    std::int32_t rrSlot_ = 0;
};

} // namespace

Program
translate(const Circuit &circuit, const TranslateOptions &options)
{
    // Nothing to lower: a macro gate reaches Emitter::append() as is,
    // and is rejected there.
    LoweringPlan plan;
    plan.numBits = circuit.numClassicalBits();
    for (const auto &g : circuit.gates())
        plan.weight += instructionsFor(g, options);
    Emitter emitter(circuit, options, plan);
    for (const auto &g : circuit.gates())
        emitter.append(g);
    return emitter.finish();
}

Program
lowerAndTranslate(const Circuit &circuit, const TranslateOptions &options,
                  ToffoliStyle style)
{
    const LoweringPlan plan =
        planLowering(circuit, style, [&options](const Gate &g) {
            return instructionsFor(g, options);
        });
    Emitter emitter(circuit, options, plan);
    for (const auto &g : circuit.gates())
        lowerGate(g, style, plan.ancilla, emitter);
    return emitter.finish();
}

} // namespace lsqca
