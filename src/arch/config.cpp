#include "arch/config.h"

#include <limits>
#include <sstream>
#include <string>

#include "common/error.h"

namespace lsqca {

const char *
samKindName(SamKind kind)
{
    switch (kind) {
      case SamKind::Point: return "point";
      case SamKind::Line: return "line";
      case SamKind::Conventional: return "conventional";
    }
    return "?";
}

SamKind
samKindFromName(const std::string &name)
{
    if (name == "point")
        return SamKind::Point;
    if (name == "line")
        return SamKind::Line;
    if (name == "conventional")
        return SamKind::Conventional;
    throw ConfigError("unknown SAM kind \"" + name +
                      "\" (expected point|line|conventional)");
}

const char *
placementPolicyName(PlacementPolicy policy)
{
    switch (policy) {
      case PlacementPolicy::RowMajor: return "row-major";
      case PlacementPolicy::Interleaved: return "interleaved";
    }
    return "?";
}

PlacementPolicy
placementPolicyFromName(const std::string &name)
{
    if (name == "row-major")
        return PlacementPolicy::RowMajor;
    if (name == "interleaved")
        return PlacementPolicy::Interleaved;
    throw ConfigError("unknown placement policy \"" + name +
                      "\" (expected row-major|interleaved)");
}

std::int32_t
ArchConfig::effectiveBufferCap() const
{
    if (bufferCap >= 0)
        return bufferCap;
    // The default is computed in 64 bits: 2 * factories overflows an
    // int32 once factories passes 2^30.
    const std::int64_t cap = 2 * static_cast<std::int64_t>(factories);
    if (cap > std::numeric_limits<std::int32_t>::max())
        throw ConfigError(
            "factories = " + std::to_string(factories) +
            " with buffer_cap = -1 (2 * factories) gives a magic buffer "
            "of " + std::to_string(cap) + " slots, more than " +
            std::to_string(std::numeric_limits<std::int32_t>::max()) +
            "; set buffer_cap explicitly");
    return static_cast<std::int32_t>(cap);
}

std::string
ArchConfig::label() const
{
    std::ostringstream oss;
    oss << samKindName(sam);
    if (sam != SamKind::Conventional) {
        oss << "#" << banks;
        if (hybridFraction > 0.0)
            oss << "+hybrid" << hybridFraction;
    }
    return oss.str();
}

void
ArchConfig::validate() const
{
    LSQCA_REQUIRE(banks >= 1, "bank count must be >= 1");
    LSQCA_REQUIRE(sam != SamKind::Point || banks <= 2,
                  "point-SAM supports at most two banks (Sec. V-A)");
    LSQCA_REQUIRE(factories >= 1, "factory count must be >= 1");
    LSQCA_REQUIRE(hybridFraction >= 0.0 && hybridFraction <= 1.0,
                  "hybrid fraction must lie in [0, 1]");
    LSQCA_REQUIRE(lat.msfPeriod >= 1, "MSF period must be positive");
    LSQCA_REQUIRE(lat.move >= 1 && lat.longMove >= 1 && lat.surgery >= 1,
                  "primitive latencies must be positive");
    LSQCA_REQUIRE(effectiveBufferCap() >= 1,
                  "magic buffer needs at least one slot");
}

} // namespace lsqca
