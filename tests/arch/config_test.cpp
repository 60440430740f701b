#include "arch/config.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/error.h"

namespace lsqca {
namespace {

TEST(ArchConfig, DefaultsMatchPaper)
{
    const ArchConfig cfg;
    EXPECT_EQ(cfg.sam, SamKind::Point);
    EXPECT_EQ(cfg.banks, 1);
    EXPECT_EQ(cfg.factories, 1);
    EXPECT_TRUE(cfg.localityStore);
    EXPECT_TRUE(cfg.inMemoryOps);
    EXPECT_EQ(cfg.effectiveBufferCap(), 2); // 2 * factories
    EXPECT_NO_THROW(cfg.validate());
}

TEST(ArchConfig, LatencyDefaultsMatchFig4)
{
    const Latencies lat;
    EXPECT_EQ(lat.hadamard, 3);
    EXPECT_EQ(lat.phase, 2);
    EXPECT_EQ(lat.surgery, 1);
    EXPECT_EQ(lat.move, 1);
    EXPECT_EQ(lat.longMove, 2);
    EXPECT_EQ(lat.pickDiagonal1, 6);
    EXPECT_EQ(lat.pickStraight1, 5);
    EXPECT_EQ(lat.pickDiagonal2, 4);
    EXPECT_EQ(lat.pickStraight2, 3);
    EXPECT_EQ(lat.msfPeriod, 15);
}

TEST(ArchConfig, BufferCapOverride)
{
    ArchConfig cfg;
    cfg.factories = 4;
    EXPECT_EQ(cfg.effectiveBufferCap(), 8);
    cfg.bufferCap = 3;
    EXPECT_EQ(cfg.effectiveBufferCap(), 3);
}

TEST(ArchConfig, DefaultBufferCapOverflowIsAConfigError)
{
    // The spec reader accepts factories up to INT32_MAX, and the
    // default buffer of 2 * factories overflows an int32 past 2^30.
    ArchConfig cfg;
    cfg.factories = 1'100'000'000;
    try {
        cfg.validate();
        FAIL() << "validate() accepted a default buffer of 2.2e9 slots";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("factories"), std::string::npos) << what;
        EXPECT_NE(what.find("buffer_cap"), std::string::npos) << what;
    }
    EXPECT_THROW((void)cfg.effectiveBufferCap(), ConfigError);
    // The largest default that fits, and an explicit cap, still work.
    cfg.factories = std::numeric_limits<std::int32_t>::max() / 2;
    EXPECT_EQ(cfg.effectiveBufferCap(), 2 * cfg.factories);
    EXPECT_NO_THROW(cfg.validate());
    cfg.factories = 1'100'000'000;
    cfg.bufferCap = 8;
    EXPECT_EQ(cfg.effectiveBufferCap(), 8);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(ArchConfig, PointSamBankLimit)
{
    ArchConfig cfg;
    cfg.sam = SamKind::Point;
    cfg.banks = 2;
    EXPECT_NO_THROW(cfg.validate());
    cfg.banks = 3;
    EXPECT_THROW(cfg.validate(), ConfigError);
    cfg.sam = SamKind::Line;
    cfg.banks = 8;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(ArchConfig, HybridFractionBounds)
{
    ArchConfig cfg;
    cfg.hybridFraction = 1.5;
    EXPECT_THROW(cfg.validate(), ConfigError);
    cfg.hybridFraction = -0.1;
    EXPECT_THROW(cfg.validate(), ConfigError);
    cfg.hybridFraction = 0.95;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(ArchConfig, Labels)
{
    ArchConfig cfg;
    EXPECT_EQ(cfg.label(), "point#1");
    cfg.sam = SamKind::Line;
    cfg.banks = 4;
    EXPECT_EQ(cfg.label(), "line#4");
    cfg.sam = SamKind::Conventional;
    EXPECT_EQ(cfg.label(), "conventional");
}

TEST(ArchConfig, SamKindNames)
{
    EXPECT_STREQ(samKindName(SamKind::Point), "point");
    EXPECT_STREQ(samKindName(SamKind::Line), "line");
    EXPECT_STREQ(samKindName(SamKind::Conventional), "conventional");
}

} // namespace
} // namespace lsqca
