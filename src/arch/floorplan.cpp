#include "arch/floorplan.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace lsqca {

std::int64_t
bankCapacity(std::int64_t sam_qubits, std::int32_t banks,
             std::int32_t bank_index)
{
    LSQCA_REQUIRE(banks >= 1 && bank_index >= 0 && bank_index < banks,
                  "bank index out of range");
    const std::int64_t base = sam_qubits / banks;
    return base + (bank_index < sam_qubits % banks ? 1 : 0);
}

BankShape
pointBankGrid(std::int32_t capacity)
{
    LSQCA_REQUIRE(capacity >= 1, "point-SAM bank needs capacity >= 1");
    const std::int64_t cells = std::int64_t{capacity} + 1;
    const auto rows = static_cast<std::int32_t>(
        std::ceil(std::sqrt(static_cast<double>(cells))));
    return {rows, static_cast<std::int32_t>((cells + rows - 1) / rows),
            capacity};
}

BankShape
lineDataGrid(std::int32_t capacity)
{
    LSQCA_REQUIRE(capacity >= 1, "line-SAM bank needs capacity >= 1");
    const auto side = static_cast<std::int32_t>(
        std::floor(std::sqrt(static_cast<double>(capacity))));
    if (static_cast<std::int64_t>(side) * side >= capacity)
        return {side, side, capacity};
    if (static_cast<std::int64_t>(side) * (side + 1) >= capacity)
        return {side, side + 1, capacity};
    return {side + 1, side + 1, capacity};
}

BankShape
bankShape(const ArchConfig &config, std::int64_t sam_qubits,
          std::int32_t bank_index)
{
    const auto cap = static_cast<std::int32_t>(
        bankCapacity(sam_qubits, config.banks, bank_index));
    if (cap == 0)
        return {};
    if (config.sam == SamKind::Point)
        return pointBankGrid(cap);
    BankShape shape = lineDataGrid(cap);
    ++shape.rows; // scan row
    return shape;
}

std::int64_t
conventionalCount(const ArchConfig &config, std::int64_t variables)
{
    if (config.sam == SamKind::Conventional)
        return variables;
    const auto rounded = static_cast<std::int64_t>(
        config.hybridFraction * static_cast<double>(variables) + 0.5);
    return std::min(rounded, variables);
}

FloorplanStats
floorplanStats(const ArchConfig &config, std::int64_t data_qubits,
               std::int64_t conventional_qubits)
{
    LSQCA_REQUIRE(conventional_qubits >= 0 &&
                      conventional_qubits <= data_qubits,
                  "conventional qubits exceed data qubits");
    FloorplanStats stats;
    stats.dataQubits = data_qubits;
    if (config.sam == SamKind::Conventional) {
        stats.conventionalCells = 2 * data_qubits;
        stats.totalCells = stats.conventionalCells;
        return stats;
    }

    const std::int64_t sam_qubits = data_qubits - conventional_qubits;
    stats.conventionalCells = 2 * conventional_qubits;
    if (sam_qubits > 0) {
        std::int32_t tallest = 0;
        for (std::int32_t b = 0; b < config.banks; ++b) {
            const BankShape shape = bankShape(config, sam_qubits, b);
            if (config.sam == SamKind::Point) {
                // Trimmed accounting: exactly capacity + 1 cells.
                stats.samCells += shape.capacity + 1;
            } else {
                stats.samCells +=
                    static_cast<std::int64_t>(shape.rows) * shape.cols;
            }
            tallest = std::max(tallest, shape.rows);
        }
        if (config.sam == SamKind::Point) {
            // Two columns of three cells (Fig. 10a); a second bank
            // attaches to the far side without growing the CR.
            stats.crCells = 6;
        } else {
            // CR spans the SAM height (Fig. 10b): two columns as tall as
            // the tallest bank stack (banks pair up left/right of CR).
            const std::int32_t stacks = (config.banks + 1) / 2;
            stats.crCells =
                2 * static_cast<std::int64_t>(tallest) * stacks;
        }
    }
    stats.totalCells =
        stats.samCells + stats.crCells + stats.conventionalCells;
    return stats;
}

std::vector<FloorplanCatalogueEntry>
floorplanCatalogue()
{
    return {
        {"1/4-filling (Beverland et al.)", 1.0 / 4.0, 1},
        {"4/9-filling (Chamberland-Campbell)", 4.0 / 9.0, 1},
        {"1/2-filling (Beverland et al.)", 1.0 / 2.0, 1},
        {"2/3-filling (Lee et al.)", 2.0 / 3.0, 3},
        {"LSQCA line-SAM (asymptotic)", 0.90, -1},
        {"LSQCA point-SAM (asymptotic)", 1.00, -1},
    };
}

} // namespace lsqca
