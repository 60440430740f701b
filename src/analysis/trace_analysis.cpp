#include "analysis/trace_analysis.h"

#include <algorithm>

#include "common/error.h"

namespace lsqca {

TraceAnalysis::TraceAnalysis(const Program &program,
                             const collectors::TraceCollector &trace)
{
    const auto n = static_cast<std::size_t>(program.numVariables());
    perVar_.assign(n, {});
    for (const collectors::TraceSample &s : trace.trace()) {
        LSQCA_REQUIRE(s.variable >= 0 &&
                          static_cast<std::size_t>(s.variable) < n,
                      "trace sample variable out of range");
        perVar_[static_cast<std::size_t>(s.variable)].push_back(s.time);
        ordered_.push_back({s.time, s.variable});
    }
    totalRefs_ = static_cast<std::int64_t>(ordered_.size());
    std::stable_sort(ordered_.begin(), ordered_.end());

    groups_.resize(1 + program.registers().size());
    groups_[0].name = "all";
    for (std::size_t r = 0; r < program.registers().size(); ++r)
        groups_[r + 1].name = program.registers()[r].name;

    for (std::size_t v = 0; v < n; ++v) {
        auto &ts = perVar_[v];
        std::sort(ts.begin(), ts.end());
        const std::int32_t reg =
            program.registerOf(static_cast<std::int32_t>(v));
        for (std::size_t i = 0; i < ts.size(); ++i) {
            groups_[0].references++;
            if (reg >= 0)
                groups_[static_cast<std::size_t>(reg) + 1].references++;
            if (i == 0)
                continue;
            const auto gap = static_cast<double>(ts[i] - ts[i - 1]);
            groups_[0].periods.add(gap);
            if (reg >= 0)
                groups_[static_cast<std::size_t>(reg) + 1].periods.add(gap);
        }
    }

    if (trace.magicTimes().size() >= 2) {
        auto times = trace.magicTimes();
        std::sort(times.begin(), times.end());
        const auto span = static_cast<double>(times.back() - times.front());
        magicInterval_ = span / static_cast<double>(times.size() - 1);
    }
}

const std::vector<std::int64_t> &
TraceAnalysis::timestamps(std::int32_t var) const
{
    LSQCA_REQUIRE(var >= 0 &&
                      static_cast<std::size_t>(var) < perVar_.size(),
                  "variable out of range");
    return perVar_[static_cast<std::size_t>(var)];
}

double
TraceAnalysis::meanPeriod() const
{
    double sum = 0.0;
    std::int64_t count = 0;
    for (const auto &ts : perVar_) {
        for (std::size_t i = 1; i < ts.size(); ++i) {
            sum += static_cast<double>(ts[i] - ts[i - 1]);
            ++count;
        }
    }
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double
TraceAnalysis::sequentialFraction(std::int32_t radius) const
{
    if (ordered_.size() < 2)
        return 0.0;
    std::int64_t close = 0;
    for (std::size_t i = 1; i < ordered_.size(); ++i) {
        if (std::abs(ordered_[i].second - ordered_[i - 1].second) <=
            radius)
            ++close;
    }
    return static_cast<double>(close) /
           static_cast<double>(ordered_.size() - 1);
}

} // namespace lsqca
