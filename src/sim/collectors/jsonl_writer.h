#ifndef LSQCA_SIM_COLLECTORS_JSONL_WRITER_H
#define LSQCA_SIM_COLLECTORS_JSONL_WRITER_H

/**
 * @file
 * JsonlWriter: streams every simulation event as one compact JSON
 * object per line — the `lsqca trace` export format.
 *
 * This header is now a thin adapter: the generic JSON-Lines
 * machinery (line emission, line counting, the tmp-file + rename
 * export cycle) moved to common/jsonl.h, shared with the campaign
 * journal (service/journal.h) and the CLI exports. What stays here is
 * only the simulation-event -> line mapping.
 *
 * Line schema (docs/OBSERVERS.md; every line has an "event" tag):
 *
 *   {"event":"begin","arch":...,"instructions":N,"banks":[...]}
 *   {"event":"instr","i":k,"op":"HD.M","m0":3,"start":s,"end":e,
 *    "split":{"seek":2,"compute":3}}
 *   {"event":"magic","i":k,"request":r,"available":a,"end":e}
 *   {"event":"cell","i":k,"t":b,"bank":0,"q":3,"row":1,"col":2,
 *    "kind":"occupy"}
 *   {"event":"end","exec_beats":...,...}
 *
 * Operand fields and zero split components are omitted, keeping lines
 * short; key order is fixed, so output is byte-deterministic for a
 * given program and configuration (pinned by a golden test and the CI
 * trace gate's byte-stable rerun).
 */

#include <ostream>

#include "common/json.h"
#include "common/jsonl.h"
#include "sim/observer.h"

namespace lsqca::collectors {

class JsonlWriter : public SimObserver
{
  public:
    /** Borrowed stream; must outlive the writer. */
    explicit JsonlWriter(std::ostream &out) : writer_(out) {}

    void onSimBegin(const SimBeginEvent &event) override;
    void onInstruction(const InstructionEvent &event) override;
    void onMagic(const MagicEvent &event) override;
    void onBankCell(const BankCellEvent &event) override;
    void onSimEnd(const SimEndEvent &event) override;

    /** Lines written so far. */
    std::int64_t lines() const { return writer_.lines(); }

  private:
    void emit(const Json &line) { writer_.emit(line); }

    jsonl::Writer writer_;
};

} // namespace lsqca::collectors

#endif // LSQCA_SIM_COLLECTORS_JSONL_WRITER_H
