#include "sweep/fan_out.h"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

namespace lsqca::detail {

std::int32_t
resolveThreads(std::int32_t threads)
{
    return threads > 0 ? threads
                       : static_cast<std::int32_t>(std::max(
                             1u, std::thread::hardware_concurrency()));
}

void
fanOut(std::size_t threads, std::size_t items,
       const std::function<void(std::size_t worker)> &drain)
{
    const std::size_t workers = std::min(threads, items);
    if (workers <= 1) {
        drain(0);
        return;
    }
    // An exception escaping a thread would terminate the process, so
    // each worker parks its first one; a failed worker stops pulling
    // items while the others drain the rest. jthread joins on scope
    // exit, also when a later thread fails to start.
    std::vector<std::exception_ptr> failures(workers);
    {
        std::vector<std::jthread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back([&, w] {
                try {
                    drain(w);
                } catch (...) {
                    failures[w] = std::current_exception();
                }
            });
    }
    for (const std::exception_ptr &failure : failures)
        if (failure)
            std::rethrow_exception(failure);
}

} // namespace lsqca::detail
