#ifndef LSQCA_ARCH_CONFIG_H
#define LSQCA_ARCH_CONFIG_H

/**
 * @file
 * Architecture configuration: floorplan kind, SAM banking, MSF sizing,
 * primitive-operation latencies (Fig. 4 / Table I), and the optimization
 * toggles of Sec. V.
 */

#include <cstdint>
#include <string>

namespace lsqca {

/** Floorplan families evaluated in the paper. */
enum class SamKind : std::uint8_t
{
    Point,        ///< point-SAM: single scan cell (Sec. IV-C2)
    Line,         ///< line-SAM: scan line (Sec. IV-C3)
    Conventional, ///< 1/2-density unit-access baseline (Sec. VI-A)
};

/** Human-readable floorplan name. */
const char *samKindName(SamKind kind);

/** Inverse of samKindName. @throws ConfigError on unknown names. */
SamKind samKindFromName(const std::string &name);

/**
 * Initial data layout inside a SAM bank (the paper's "strategic data
 * allocation" future-work axis, Sec. I).
 */
enum class PlacementPolicy : std::uint8_t
{
    /** Variables fill the grid in index order (the paper's baseline). */
    RowMajor,
    /**
     * Registers are interleaved bit-wise: bit i of every program
     * register lands in the same grid neighborhood, so the working set
     * of bit-sliced arithmetic (a_i, b_i, carry_i, ...) starts
     * co-located.
     */
    Interleaved,
};

/** Human-readable placement-policy name. */
const char *placementPolicyName(PlacementPolicy policy);

/** Inverse of placementPolicyName. @throws ConfigError. */
PlacementPolicy placementPolicyFromName(const std::string &name);

/**
 * Primitive-operation latencies in code beats (DESIGN.md §4.1).
 * Defaults encode Fig. 4 and Table I; tests pin them.
 */
struct Latencies
{
    std::int32_t hadamard = 3;      ///< HD (Fig. 4c)
    std::int32_t phase = 2;         ///< PH (Fig. 4b)
    std::int32_t surgery = 1;       ///< MXX/MZZ merge+split (Fig. 4a)
    std::int32_t move = 1;          ///< adjacent patch move (Fig. 4d)
    std::int32_t longMove = 2;      ///< expand+contract along a path (4e)
    std::int32_t pickDiagonal1 = 6; ///< point-SAM diagonal, one empty
    std::int32_t pickStraight1 = 5; ///< point-SAM straight, one empty
    std::int32_t pickDiagonal2 = 4; ///< point-SAM diagonal, two empties
    std::int32_t pickStraight2 = 3; ///< point-SAM straight, two empties
    std::int32_t msfPeriod = 15;    ///< beats per magic state per factory
    std::int32_t magicTransfer = 1; ///< MSF buffer -> CR port
    std::int32_t skWait = 0;        ///< decoder wait charged by SK

    bool operator==(const Latencies &) const = default;
};

/** Full architecture configuration for one simulation. */
struct ArchConfig
{
    SamKind sam = SamKind::Point;
    std::int32_t banks = 1;       ///< SAM bank count (point: 1-2)
    std::int32_t factories = 1;   ///< MSF count
    std::int32_t bufferCap = -1;  ///< magic buffer; -1 = 2 * factories
    std::int32_t crRegisters = 2; ///< CR register cells (paper fixes 2)
    /**
     * Hybrid floorplan ratio f (Sec. VI-C): the ceil(f * n) most
     * referenced variables live in a conventional region attached to CR.
     */
    double hybridFraction = 0.0;
    bool localityStore = true;    ///< Sec. V-B locality-aware store
    bool inMemoryOps = true;      ///< Sec. V-C in-memory operations
    /**
     * Line-SAM row-parallel unitaries (Sec. V-C / Fig. 12c): H or S
     * applied to several cells of one aligned line share a single
     * gap-row window instead of serializing on the scan resource.
     */
    bool rowParallelOps = true;
    /**
     * Extension (off in the paper's evaluation): allow line-SAM lattice
     * surgery directly between two data cells that share a line, instead
     * of round-tripping one operand through the CR. Explored by the
     * ablation bench as a beyond-paper optimization.
     */
    bool directSurgery = false;
    /** Initial data layout inside banks (default: paper baseline). */
    PlacementPolicy placement = PlacementPolicy::RowMajor;
    bool instantMagic = false;    ///< Sec. III-B analysis assumption
    bool warmBuffer = true;       ///< buffer pre-filled at t = 0
    Latencies lat;

    /** Effective buffer capacity (resolves the -1 default). */
    std::int32_t effectiveBufferCap() const;

    /** Short identifier, e.g. "point#2" or "conventional". */
    std::string label() const;

    /** Throws ConfigError on invalid combinations. */
    void validate() const;

    bool operator==(const ArchConfig &) const = default;
};

} // namespace lsqca

#endif // LSQCA_ARCH_CONFIG_H
