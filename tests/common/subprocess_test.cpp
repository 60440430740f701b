/**
 * @file
 * The POSIX child-process layer `lsqca submit` spawns its workers
 * through: exit and signal decoding, non-blocking polls, SIGKILL,
 * output capture into an appended log, argv passed without a shell,
 * and the exit-127 contract for a binary that cannot be executed.
 */

#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/fs.h"
#include "common/subprocess.h"

namespace lsqca::proc {
namespace {

std::string
scratchDir(const std::string &tag)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string dir = ::testing::TempDir() + "lsqca_proc_" +
                            info->name() + "_" + tag;
    std::filesystem::remove_all(dir);
    fsutil::makeDirs(dir);
    return dir;
}

Status
run(std::vector<std::string> argv, const std::string &logPath = "")
{
    Command command;
    command.argv = std::move(argv);
    command.logPath = logPath;
    return wait(spawn(command));
}

TEST(Subprocess, ZeroExitIsOk)
{
    const Status status = run({"/bin/sh", "-c", "exit 0"});
    EXPECT_FALSE(status.running);
    EXPECT_TRUE(status.exited);
    EXPECT_EQ(status.exitCode, 0);
    EXPECT_FALSE(status.signaled);
    EXPECT_TRUE(status.ok());
    EXPECT_EQ(status.describe(), "exit 0");
}

TEST(Subprocess, NonzeroExitCodeIsDecoded)
{
    const Status status = run({"/bin/sh", "-c", "exit 3"});
    EXPECT_TRUE(status.exited);
    EXPECT_EQ(status.exitCode, 3);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.describe(), "exit 3");
}

TEST(Subprocess, SignalDeathIsDecoded)
{
    const Status status = run({"/bin/sh", "-c", "kill -TERM $$"});
    EXPECT_FALSE(status.exited);
    EXPECT_TRUE(status.signaled);
    EXPECT_EQ(status.signal, SIGTERM);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.describe(), "signal " + std::to_string(SIGTERM));
}

TEST(Subprocess, PollDoesNotBlockOnALiveChildAndTerminateKillsIt)
{
    Command command;
    command.argv = {"/bin/sh", "-c", "exec sleep 30"};
    const Pid pid = spawn(command);
    const Status live = poll(pid);
    EXPECT_TRUE(live.running);
    EXPECT_EQ(live.describe(), "running");

    terminate(pid);
    const Status dead = wait(pid);
    EXPECT_TRUE(dead.signaled);
    EXPECT_EQ(dead.signal, SIGKILL);
    EXPECT_EQ(dead.describe(), "signal 9");
}

TEST(Subprocess, PollReturnsTheExitOnceTheChildIsDone)
{
    Command command;
    command.argv = {"/bin/sh", "-c", "exit 7"};
    const Pid pid = spawn(command);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    Status status = poll(pid);
    while (status.running &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        status = poll(pid);
    }
    ASSERT_FALSE(status.running);
    EXPECT_TRUE(status.exited);
    EXPECT_EQ(status.exitCode, 7);
    // Reaped: the pid is no longer this process's child.
    EXPECT_THROW(poll(pid), ConfigError);
}

TEST(Subprocess, LogCapturesStdoutAndStderrAndAppends)
{
    const std::string dir = scratchDir("log");
    // The log's parent directories are created on demand.
    const std::string log = dir + "/nested/deeper/worker.log";
    const std::vector<std::string> argv = {
        "/bin/sh", "-c", "echo out; echo err >&2"};
    ASSERT_TRUE(run(argv, log).ok());
    ASSERT_TRUE(run(argv, log).ok());
    EXPECT_EQ(fsutil::readFile(log), "out\nerr\nout\nerr\n");
}

TEST(Subprocess, ArgvReachesTheChildVerbatimWithoutAShell)
{
    const std::string dir = scratchDir("argv");
    const std::string log = dir + "/argv.log";
    // printf runs directly: no word splitting, globbing or expansion.
    ASSERT_TRUE(run({"/usr/bin/printf", "[%s]\\n", "a b", "$HOME", "*",
                     ""},
                    log)
                    .ok());
    EXPECT_EQ(fsutil::readFile(log), "[a b]\n[$HOME]\n[*]\n[]\n");
}

TEST(Subprocess, UnexecutableBinaryExitsWith127)
{
    const std::string dir = scratchDir("missing");
    const Status missing = run({dir + "/no-such-binary"}, dir + "/log");
    EXPECT_TRUE(missing.exited);
    EXPECT_EQ(missing.exitCode, 127);

    // execv does no PATH search: a bare name is not found either.
    const Status bare = run({"sh", "-c", "exit 0"}, dir + "/log");
    EXPECT_EQ(bare.exitCode, 127);
}

TEST(Subprocess, EmptyArgvIsRejectedBeforeForking)
{
    EXPECT_THROW(spawn(Command{}), ConfigError);
}

TEST(Subprocess, SelfExecutableResolvesTheRunningBinary)
{
    const std::string self = selfExecutable("fallback");
    ASSERT_NE(self, "fallback");
    const std::filesystem::path path(self);
    EXPECT_TRUE(path.is_absolute()) << self;
    EXPECT_TRUE(std::filesystem::is_regular_file(path)) << self;
    EXPECT_EQ(path.filename().string(), "common_tests");
}

} // namespace
} // namespace lsqca::proc
