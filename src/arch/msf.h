#ifndef LSQCA_ARCH_MSF_H
#define LSQCA_ARCH_MSF_H

/**
 * @file
 * Magic-state factory model (Litinski design, Sec. VI-A): each factory
 * emits one distilled state per period into a shared bounded buffer;
 * production stalls while the buffer is full.
 */

#include <cstdint>
#include <vector>

#include "common/error.h"

namespace lsqca {

/**
 * Deterministic producer/consumer model of the MSF pool.
 *
 * State k is delivered to the buffer at
 *   d_k = max(d_{k-f} + period, c_{k-B})
 * (f factories, buffer capacity B, c = consumption times), with the
 * first B states available at t = 0 when warm-started. Consumption is
 * in program order, matching the in-order scheduler.
 */
class MagicSource
{
  public:
    /** A granted magic state: wait until @c start, in CR at @c end. */
    struct Grant
    {
        std::int64_t start;
        std::int64_t end;
    };

    MagicSource(std::int32_t factories, std::int32_t buffer_cap,
                std::int32_t period, std::int32_t transfer,
                bool warm_start, bool instant);

    /**
     * Consume the next magic state, requested no earlier than @p req.
     * Monotonically increasing @p req values are required (in-order
     * issue). @return the wait-resolved transfer window.
     */
    Grant acquire(std::int64_t req);

    /** States consumed so far. */
    std::int64_t consumed() const { return consumed_; }

    /** Beats spent waiting on an empty buffer so far. */
    std::int64_t stallBeats() const { return stallBeats_; }

  private:
    std::int64_t deliveryTime() const;

    std::int32_t factories_;
    std::int32_t bufferCap_;
    std::int32_t period_;
    std::int32_t transfer_;
    bool warm_;
    bool instant_;
    std::int64_t consumed_ = 0;
    std::int64_t stallBeats_ = 0;
    // The recurrence's history as rings: state k's delivery d_k lives
    // at delivered_[k mod factories_] and its consumption c_k at
    // consumedAt_[k mod bufferCap_], so before state k overwrites its
    // slots they hold d_{k-f} and c_{k-B}. Each ring grows to its size
    // on the first lap only, so an unused buffer capacity costs nothing.
    std::vector<std::int64_t> delivered_;
    std::vector<std::int64_t> consumedAt_;
    std::int32_t deliveredPos_ = 0; ///< consumed_ mod factories_
    std::int32_t consumedPos_ = 0;  ///< consumed_ mod bufferCap_
};

} // namespace lsqca

#endif // LSQCA_ARCH_MSF_H
