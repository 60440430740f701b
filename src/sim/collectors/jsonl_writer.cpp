#include "sim/collectors/jsonl_writer.h"

#include "arch/config.h"
#include "sim/result.h"

namespace lsqca::collectors {
namespace {

/** Append only the nonzero components (short, stable-order lines). */
Json
splitToJson(const LatencySplit &split)
{
    Json doc = Json::object();
    if (split.load)
        doc.set("load", split.load);
    if (split.store)
        doc.set("store", split.store);
    if (split.seek)
        doc.set("seek", split.seek);
    if (split.pick)
        doc.set("pick", split.pick);
    if (split.align)
        doc.set("align", split.align);
    if (split.surgery)
        doc.set("surgery", split.surgery);
    if (split.compute)
        doc.set("compute", split.compute);
    if (split.magicStall)
        doc.set("magic_stall", split.magicStall);
    if (split.skWait)
        doc.set("sk_wait", split.skWait);
    return doc;
}

} // namespace

void
JsonlWriter::onSimBegin(const SimBeginEvent &event)
{
    Json line = Json::object();
    line.set("event", "begin");
    line.set("arch", event.arch->label());
    line.set("instructions", event.instructions);
    Json banks = Json::array();
    for (const BankLayout &shape : event.banks) {
        Json bank = Json::object();
        bank.set("rows", shape.rows);
        bank.set("cols", shape.cols);
        bank.set("occupancy", shape.occupancy);
        banks.push(std::move(bank));
    }
    line.set("banks", std::move(banks));
    emit(line);
}

void
JsonlWriter::onInstruction(const InstructionEvent &event)
{
    Json line = Json::object();
    line.set("event", "instr");
    line.set("i", event.index);
    line.set("op", mnemonic(event.inst.op));
    if (event.inst.m0 >= 0)
        line.set("m0", event.inst.m0);
    if (event.inst.m1 >= 0)
        line.set("m1", event.inst.m1);
    if (event.inst.c0 >= 0)
        line.set("c0", event.inst.c0);
    if (event.inst.c1 >= 0)
        line.set("c1", event.inst.c1);
    if (event.inst.v0 >= 0)
        line.set("v0", event.inst.v0);
    line.set("start", event.start);
    line.set("end", event.end);
    const Json split = splitToJson(event.split);
    if (split.size() > 0)
        line.set("split", split);
    emit(line);
}

void
JsonlWriter::onMagic(const MagicEvent &event)
{
    Json line = Json::object();
    line.set("event", "magic");
    line.set("i", event.index);
    line.set("request", event.request);
    line.set("available", event.available);
    line.set("end", event.end);
    emit(line);
}

void
JsonlWriter::onBankCell(const BankCellEvent &event)
{
    Json line = Json::object();
    line.set("event", "cell");
    line.set("i", event.index);
    line.set("t", event.time);
    line.set("bank", event.bank);
    line.set("q", event.qubit);
    line.set("row", event.cell.row);
    line.set("col", event.cell.col);
    line.set("kind", cellEventKindName(event.kind));
    emit(line);
}

void
JsonlWriter::onSimEnd(const SimEndEvent &event)
{
    const SimResult &r = *event.result;
    Json line = Json::object();
    line.set("event", "end");
    line.set("exec_beats", r.execBeats);
    line.set("instructions", r.instructionsSimulated);
    line.set("counted_instructions", r.countedInstructions);
    line.set("memory_beats", r.memoryBeats);
    line.set("magic_consumed", r.magicConsumed);
    line.set("magic_stall_beats", r.magicStallBeats);
    emit(line);
}

} // namespace lsqca::collectors
