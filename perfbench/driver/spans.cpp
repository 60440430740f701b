#include "spans.h"

namespace perfbench {

using lsqca::Json;

double
Tracer::selfTime(std::int32_t id) const
{
    double children = 0.0;
    for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size();
         ++i)
        if (spans_[i].parent == id)
            children += spans_[i].end - spans_[i].start;
    return duration(id) - children;
}

std::map<std::string, double>
Tracer::selfTimesByName() const
{
    std::vector<double> children(spans_.size(), 0.0);
    for (const Span &span : spans_)
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)] +=
                span.end - span.start;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[spans_[i].name] +=
            spans_[i].end - spans_[i].start - children[i];
    return self;
}

Json
Tracer::toJson() const
{
    Json spans = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Json span = Json::object();
        span.set("id", static_cast<std::int64_t>(i));
        span.set("name", spans_[i].name);
        span.set("start", spans_[i].start);
        span.set("end", spans_[i].end);
        span.set("parent", spans_[i].parent);
        spans.push(std::move(span));
    }
    Json self = Json::object();
    for (const auto &[name, seconds] : selfTimesByName())
        self.set(name, seconds);
    Json doc = Json::object();
    doc.set("spans", std::move(spans));
    doc.set("self_seconds", std::move(self));
    return doc;
}

} // namespace perfbench
