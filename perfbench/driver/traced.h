#ifndef PERFBENCH_TRACED_H
#define PERFBENCH_TRACED_H

/**
 * @file
 * The traced run: per-layer metrics. It re-runs a workload's cold leg
 * with every stage called separately under a span (spec expansion,
 * synthesis, lowering, translation, the sweep engine, BENCH
 * serialization), then times the layers the untraced legs only
 * exercise in aggregate: one single-threaded simulation pass per
 * machine kind, a counting SimObserver pass for bank cell events, the
 * three campaign legs (read back from their journals and shard
 * documents), direct ResultCache calls, and exact versus sampled
 * estimation on Fig. 14.
 */

#include <string>

#include "common/json.h"
#include "inputs.h"
#include "legs.h"
#include "spans.h"

namespace perfbench {

/**
 * Run the traced suite for @p workload. @p context carries the
 * workload's reference; @p campaignReference checks the campaign legs
 * every traced run includes. Returns the per-layer metrics by name.
 */
lsqca::Json runTraced(const Inputs &inputs, const std::string &workload,
                      const LegContext &context,
                      const Reference &campaignReference, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_TRACED_H
