/**
 * @file
 * Crash-safety contract of the fsutil atomic write path: every
 * successful writeFileAtomic must fsync its data before rename
 * publishes the name, concurrent writers of one path must never tear
 * each other's staging files, and listFiles must tolerate directory
 * entries that cannot be stat()ed (dangling symlinks in a shared
 * cache directory) instead of aborting the listing.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "common/error.h"
#include "common/fs.h"

namespace lsqca::fsutil {
namespace {

namespace stdfs = std::filesystem;

std::string
scratchDir(const std::string &tag)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string dir = ::testing::TempDir() + "lsqca_fs_" +
                            info->name() + "_" + tag;
    stdfs::remove_all(dir);
    makeDirs(dir);
    return dir;
}

/** Files under @p dir whose names contain ".tmp." (staging leaks). */
std::vector<std::string>
stagingLeaks(const std::string &dir)
{
    std::vector<std::string> leaks;
    for (const auto &item : stdfs::directory_iterator(dir))
        if (item.path().filename().string().find(".tmp.") !=
            std::string::npos)
            leaks.push_back(item.path().string());
    return leaks;
}

TEST(WriteFileAtomic, FsyncsDataBeforeEveryPublish)
{
    const std::string dir = scratchDir("fsync");
    const AtomicWriteStats before = atomicWriteStats();
    writeFileAtomic(dir + "/a.json", "{\"a\":1}\n");
    writeFileAtomic(dir + "/b.json", "{\"b\":2}\n");
    const AtomicWriteStats after = atomicWriteStats();
    EXPECT_EQ(after.writes, before.writes + 2);
    // The durability half of the contract: a data fsync per publish,
    // issued before the rename (a crash right after rename must not be
    // able to surface an empty file at the final path).
    EXPECT_GE(after.fsyncs, before.fsyncs + 2);
    EXPECT_EQ(readFile(dir + "/a.json"), "{\"a\":1}\n");
}

TEST(ReplaceFile, RenamesOverTheTargetWithoutFsyncs)
{
    const std::string dir = scratchDir("replace");
    const std::string path = dir + "/sub/BENCH_x.json";
    replaceFile(path, "old\n");
    // A hard link keeps the old inode: a replace renames a new file
    // over the name, where an in-place rewrite would truncate it.
    stdfs::create_hard_link(path, dir + "/old-link");
    const AtomicWriteStats before = atomicWriteStats();
    replaceFile(path, "new\n");
    const AtomicWriteStats after = atomicWriteStats();
    EXPECT_EQ(readFile(path), "new\n");
    EXPECT_EQ(readFile(dir + "/old-link"), "old\n");
    EXPECT_EQ(after.writes, before.writes);
    EXPECT_EQ(after.fsyncs, before.fsyncs);
    EXPECT_TRUE(stagingLeaks(dir + "/sub").empty());
}

TEST(ReplaceFile, CreatesWithTheUmaskModeAndWritesThroughASymlink)
{
    const std::string dir = scratchDir("mode");
    // Created 0666 less the umask, as std::ofstream creates a file: a
    // group-writable umask keeps group write.
    const ::mode_t saved = ::umask(002);
    replaceFile(dir + "/doc.json", "v1\n");
    ::umask(saved);
    EXPECT_EQ(stdfs::status(dir + "/doc.json").permissions() &
                  stdfs::perms::all,
              static_cast<stdfs::perms>(0664));
    // A rename would replace the link itself, so a symlinked document
    // is written through in place and the link stays a link.
    stdfs::create_symlink("doc.json", dir + "/link.json");
    replaceFile(dir + "/link.json", "v2\n");
    EXPECT_TRUE(stdfs::is_symlink(stdfs::symlink_status(dir + "/link.json")));
    EXPECT_EQ(readFile(dir + "/doc.json"), "v2\n");
    EXPECT_TRUE(stagingLeaks(dir).empty());
}

TEST(WriteFileAtomic, ConcurrentSamePathWritersNeverTearOrLeak)
{
    const std::string dir = scratchDir("race");
    const std::string path = dir + "/contended.json";
    // Distinct payloads large enough that interleaved partial writes
    // would be visible as mixed-character content.
    constexpr int kWriters = 4;
    constexpr int kRounds = 24;
    std::vector<std::string> payloads;
    payloads.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w)
        payloads.push_back(std::string(64 * 1024, 'A' + w));

    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&, w] {
            for (int round = 0; round < kRounds; ++round)
                writeFileAtomic(path, payloads[w]);
        });
    for (std::thread &writer : writers)
        writer.join();

    // Whatever write won last, the published bytes are exactly one
    // writer's payload — never a mix, never truncated.
    const std::string final = readFile(path);
    bool intact = false;
    for (const std::string &payload : payloads)
        intact = intact || final == payload;
    EXPECT_TRUE(intact) << "torn content, size " << final.size();
    // Every staging file was uniquely named and renamed or cleaned up.
    EXPECT_TRUE(stagingLeaks(dir).empty());
}

TEST(ListFiles, SkipsEntriesThatCannotBeStatted)
{
    const std::string dir = scratchDir("dangling");
    writeFileAtomic(dir + "/keep.json", "{}");
    makeDirs(dir + "/subdir.json"); // directory, despite the suffix
    // A dangling symlink: exists as a directory entry, but stat()
    // fails. The throwing is_regular_file() overload would abort the
    // whole listing here.
    std::error_code ec;
    stdfs::create_symlink(dir + "/never-created.json",
                          dir + "/dangling.json", ec);
    ASSERT_FALSE(ec) << ec.message();

    const std::vector<std::string> files = listFiles(dir, "", ".json");
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(files[0], dir + "/keep.json");
}

} // namespace
} // namespace lsqca::fsutil
