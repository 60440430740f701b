/**
 * @file
 * bench::parseArgs must fail fast: an unknown flag or a malformed
 * number exits non-zero instead of silently running the wrong
 * experiment (the pre-refactor parser ignored unknown arguments and
 * atoi'd "--threads x" to zero workers).
 */

#include <gtest/gtest.h>

#include "bench_util.h"

namespace lsqca::bench {
namespace {

BenchArgs
parse(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "bench");
    return parseArgs(static_cast<int>(argv.size()),
                     const_cast<char **>(argv.data()));
}

TEST(BenchArgs, ParsesTheSupportedFlags)
{
    const BenchArgs args =
        parse({"--csv", "csvdir", "--full", "--threads", "8", "--out",
               "outdir", "--smoke"});
    ASSERT_TRUE(args.csvDir.has_value());
    EXPECT_EQ(*args.csvDir, "csvdir");
    EXPECT_TRUE(args.full);
    EXPECT_EQ(args.threads, 8);
    EXPECT_EQ(args.outDir, "outdir");
    EXPECT_TRUE(args.smoke);
}

TEST(BenchArgsDeathTest, RejectsUnknownArguments)
{
    EXPECT_EXIT(parse({"--theads", "4"}),
                testing::ExitedWithCode(2), "unknown argument");
    EXPECT_EXIT(parse({"extra"}), testing::ExitedWithCode(2),
                "unknown argument");
}

TEST(BenchArgsDeathTest, RejectsWorkerOnlyFlags)
{
    // Campaign workers are `lsqca run`; a figure bench takes no shard,
    // timeout or seed-check flag and must not quietly run the whole
    // sweep when handed one.
    EXPECT_EXIT(parse({"--shard", "1/4"}), testing::ExitedWithCode(2),
                "unknown argument");
    EXPECT_EXIT(parse({"--timeout-seconds", "2.5"}),
                testing::ExitedWithCode(2), "unknown argument");
    EXPECT_EXIT(parse({"--seed-check", "0123456789abcdef"}),
                testing::ExitedWithCode(2), "unknown argument");
}

TEST(BenchArgsDeathTest, RejectsMalformedThreads)
{
    // atoi("x") == 0 used to silently fall back to one worker.
    EXPECT_EXIT(parse({"--threads", "x"}),
                testing::ExitedWithCode(2), "--threads expects");
    EXPECT_EXIT(parse({"--threads", "4x"}),
                testing::ExitedWithCode(2), "--threads expects");
    EXPECT_EXIT(parse({"--threads", "-1"}),
                testing::ExitedWithCode(2), "--threads expects");
    EXPECT_EXIT(parse({"--threads", "99999999999999999999"}),
                testing::ExitedWithCode(2), "--threads expects");
}

TEST(BenchArgsDeathTest, RejectsMissingValues)
{
    EXPECT_EXIT(parse({"--csv"}), testing::ExitedWithCode(2),
                "missing value");
    EXPECT_EXIT(parse({"--out"}), testing::ExitedWithCode(2),
                "missing value");
    EXPECT_EXIT(parse({"--threads"}), testing::ExitedWithCode(2),
                "missing value");
}

} // namespace
} // namespace lsqca::bench
