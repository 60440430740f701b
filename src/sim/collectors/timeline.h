#ifndef LSQCA_SIM_COLLECTORS_TIMELINE_H
#define LSQCA_SIM_COLLECTORS_TIMELINE_H

/**
 * @file
 * Timeline: a bounded ring of instruction issue records. Keeps the
 * last `capacity` InstructionEvents (default 4096), so tracing a
 * multi-million-instruction run costs constant memory; records()
 * returns them oldest-first.
 */

#include <cstdint>
#include <vector>

#include "sim/observer.h"

namespace lsqca::collectors {

class Timeline : public SimObserver
{
  public:
    explicit Timeline(std::size_t capacity = 4096) : capacity_(capacity)
    {
    }

    void
    onInstruction(const InstructionEvent &event) override
    {
        ++seen_;
        if (ring_.size() < capacity_) {
            ring_.push_back(event);
            return;
        }
        if (capacity_ == 0)
            return;
        ring_[next_] = event;
        next_ = (next_ + 1) % capacity_;
    }

    /** Total instruction events observed (may exceed capacity). */
    std::int64_t seen() const { return seen_; }

    /** Retained records, oldest first. */
    std::vector<InstructionEvent>
    records() const
    {
        std::vector<InstructionEvent> ordered;
        ordered.reserve(ring_.size());
        for (std::size_t i = 0; i < ring_.size(); ++i)
            ordered.push_back(ring_[(next_ + i) % ring_.size()]);
        return ordered;
    }

  private:
    std::size_t capacity_;
    std::size_t next_ = 0;
    std::int64_t seen_ = 0;
    std::vector<InstructionEvent> ring_;
};

} // namespace lsqca::collectors

#endif // LSQCA_SIM_COLLECTORS_TIMELINE_H
