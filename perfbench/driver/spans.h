#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

/**
 * @file
 * In-memory span recorder for the traced run. Spans are recorded from
 * the benchmark's own code around the calls it makes into each module
 * (nothing inside src/ is instrumented), kept in memory, and written
 * once when the run ends. All spans come from the driver's main
 * thread, so children never overlap and a span's self time is its
 * duration minus its children's.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"

namespace perfbench {

struct Span
{
    std::string name;
    double start = 0.0; ///< seconds since the tracer started
    double end = 0.0;
    std::int32_t parent = -1; ///< index of the enclosing span, -1 = root
};

class Tracer
{
  public:
    Tracer() : t0_(std::chrono::steady_clock::now()) {}

    double now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0_)
            .count();
    }

    std::int32_t begin(std::string name)
    {
        Span span;
        span.name = std::move(name);
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.start = now();
        spans_.push_back(std::move(span));
        stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
        return stack_.back();
    }

    void end(std::int32_t id)
    {
        spans_[static_cast<std::size_t>(id)].end = now();
        stack_.pop_back();
    }

    double duration(std::int32_t id) const
    {
        const Span &span = spans_[static_cast<std::size_t>(id)];
        return span.end - span.start;
    }

    /** Duration of @p id minus the time its direct children cover. */
    double selfTime(std::int32_t id) const;

    /** Summed self time per span name. */
    std::map<std::string, double> selfTimesByName() const;

    /** {"spans": [{id, name, start, end, parent}], "self_seconds": {}}. */
    lsqca::Json toJson() const;

  private:
    std::chrono::steady_clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/** RAII span: begin on construction, end on destruction. */
class Scope
{
  public:
    Scope(Tracer &tracer, std::string name)
        : tracer_(tracer), id_(tracer.begin(std::move(name)))
    {
    }
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int32_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::int32_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
