/**
 * @file
 * A guided tour of the LSQCA ISA (Table I): shows how each gate of a
 * small teleportation-flavored circuit lowers to instructions, then
 * disassembles the full program and prints per-opcode statistics from a
 * simulation.
 */

#include <iostream>

#include "circuit/circuit.h"
#include "circuit/lowering.h"
#include "common/table.h"
#include "sim/simulator.h"
#include "translate/translate.h"

int
main()
{
    using namespace lsqca;

    // A small circuit touching every translation rule: Clifford 1q,
    // T gadget, optimized CX/CZ, AND compute/uncompute, measurement.
    Circuit circ;
    circ.addRegister("q", 4);
    circ.h(0);
    circ.s(1);
    circ.t(2);
    circ.cx(0, 1);
    circ.cz(1, 2);
    circ.andInit(0, 1, 3);
    circ.andUncompute(0, 1, 3);
    circ.x(2); // Pauli: absorbed into the frame, emits nothing
    circ.measZ(2);

    const Circuit lowered = lowerToCliffordT(circ);
    const Program program = translate(lowered);

    std::cout << "gate-level size " << circ.size() << " -> Clifford+T "
              << lowered.size() << " -> LSQCA instructions "
              << program.size() << " (counted "
              << program.countedInstructions() << ", magic "
              << program.magicCount() << ")\n\n";
    std::cout << program.disassemble() << "\n";

    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    opts.recordBreakdown = true;
    const SimResult r = simulate(program, opts);

    TextTable table({"opcode", "class latency", "count",
                     "occupied beats"});
    for (const OpcodeSplit &row : r.breakdown) {
        const OpcodeInfo &info = opcodeInfo(row.op);
        table.addRow({info.mnemonic,
                      info.latency == kVariableLatency
                          ? "variable"
                          : std::to_string(info.latency),
                      std::to_string(row.count),
                      std::to_string(row.beats)});
    }
    std::cout << table.render("per-opcode execution statistics "
                              "(point-SAM, 1 factory)")
              << "\ntotal: " << r.execBeats << " beats, CPI " << r.cpi
              << "\n";
    return 0;
}
