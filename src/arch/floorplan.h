#ifndef LSQCA_ARCH_FLOORPLAN_H
#define LSQCA_ARCH_FLOORPLAN_H

/**
 * @file
 * Floorplan rules: the bank grids the simulator runs, the size of the
 * hybrid conventional region, and the cell accounting and memory density
 * built on them. The simulated banks and the density accounting both
 * call these rules.
 *
 * Density is program data qubits over total logical cells (SAM banks +
 * CR + any hybrid conventional region), with MSFs excluded as in
 * Sec. VI-A. Also provides the Fig. 7 catalogue of conventional
 * floorplan densities for reference.
 */

#include <cstdint>
#include <vector>

#include "arch/config.h"

namespace lsqca {

/** Rows x cols of one SAM bank's cell grid (including auxiliary cells). */
struct BankShape
{
    std::int32_t rows = 0;
    std::int32_t cols = 0;
    std::int32_t capacity = 0; ///< data qubits this bank holds

    std::int32_t cells() const { return rows * cols; }
};

/** Cell accounting for a full machine instance. */
struct FloorplanStats
{
    std::int64_t dataQubits = 0;         ///< program variables
    std::int64_t samCells = 0;           ///< all bank cells (data + aux)
    std::int64_t crCells = 0;            ///< CR region incl. ports
    std::int64_t conventionalCells = 0;  ///< hybrid region (2 per qubit)
    std::int64_t totalCells = 0;

    double
    density() const
    {
        return totalCells == 0
                   ? 0.0
                   : static_cast<double>(dataQubits) /
                         static_cast<double>(totalCells);
    }
};

/**
 * Point-SAM grid for @p capacity >= 1 data qubits: the squarest
 * rows x cols grid of at least capacity + 1 cells (data plus the scan
 * cell), with rows = ceil(sqrt(capacity + 1)) (footnote 1). PointSamBank
 * simulates this whole grid; floorplanStats() counts only its
 * capacity + 1 cells, as if the bottom row were trimmed.
 */
BankShape pointBankGrid(std::int32_t capacity);

/**
 * Line-SAM data grid for @p capacity >= 1 qubits, the tightest of the
 * L x L / L x (L + 1) forms of Sec. VI-A: with L = floor(sqrt(capacity)),
 * the first of L x L, L x (L + 1) and (L + 1) x (L + 1) that holds
 * capacity cells. LineSamBank simulates it; bankShape() adds the scan
 * row.
 */
BankShape lineDataGrid(std::int32_t capacity);

/**
 * Shape of bank @p bank_index when @p sam_qubits variables are dealt
 * round-robin over @p config.banks banks: pointBankGrid() for point
 * banks, lineDataGrid() plus one scan row for line banks, and an empty
 * shape for a bank that holds nothing.
 */
BankShape bankShape(const ArchConfig &config, std::int64_t sam_qubits,
                    std::int32_t bank_index);

/**
 * Variables that live in the hybrid conventional region (Sec. VI-C)
 * when @p config runs a program of @p variables: all of them on a
 * conventional machine; otherwise f * n rounded half up, with
 * f = config.hybridFraction and n = @p variables. The machine fills the
 * region with the most referenced variables (Program::referenceCounts()).
 */
std::int64_t conventionalCount(const ArchConfig &config,
                               std::int64_t variables);

/** Number of variables dealt to bank @p bank_index. */
std::int64_t bankCapacity(std::int64_t sam_qubits, std::int32_t banks,
                          std::int32_t bank_index);

/**
 * Full cell accounting for @p config hosting @p data_qubits program
 * variables, of which @p conventional_qubits live in the hybrid region.
 */
FloorplanStats floorplanStats(const ArchConfig &config,
                              std::int64_t data_qubits,
                              std::int64_t conventional_qubits);

/** One entry of the Fig. 7 existing-floorplan catalogue. */
struct FloorplanCatalogueEntry
{
    const char *name;
    double density;          ///< data cells / total cells
    std::int32_t accessBeats; ///< worst-case beats to touch any qubit
};

/** The four floorplans of Fig. 7 plus the LSQCA asymptotes. */
std::vector<FloorplanCatalogueEntry> floorplanCatalogue();

} // namespace lsqca

#endif // LSQCA_ARCH_FLOORPLAN_H
