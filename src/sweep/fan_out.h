#ifndef LSQCA_SWEEP_FAN_OUT_H
#define LSQCA_SWEEP_FAN_OUT_H

/**
 * @file
 * The one worker fan-out in liblsqca. SweepEngine::run() drains its
 * work items through it, and BenchmarkRegistry::programs() the builds
 * a sweep needs before it starts, so both run on the same threads.
 */

#include <cstddef>
#include <cstdint>
#include <functional>

namespace lsqca::detail {

/** A worker count as options give it: 0 (or less) = hardware
 *  concurrency, and never less than 1. */
std::int32_t resolveThreads(std::int32_t threads);

/**
 * Call @p drain(w) for every worker w below min(@p threads, @p items),
 * each on its own std::jthread, or drain(0) on the calling thread when
 * that is at most one. The drains share the items out among themselves
 * (typically through one atomic index). A throwing drain stops only its
 * own worker; once every thread has joined, the exception of the
 * lowest-numbered failed worker is rethrown.
 */
void fanOut(std::size_t threads, std::size_t items,
            const std::function<void(std::size_t worker)> &drain);

} // namespace lsqca::detail

#endif // LSQCA_SWEEP_FAN_OUT_H
