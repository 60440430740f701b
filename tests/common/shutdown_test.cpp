/**
 * @file
 * The cooperative SIGINT/SIGTERM contract `lsqca submit|resume` relies
 * on: after install(), a signal is recorded for the drive loop instead
 * of killing the process, a blocked system call returns EINTR rather
 * than restarting, and SIGPIPE no longer kills a process writing to a
 * closed pipe. Handlers are process-wide and the pending flag cannot
 * be cleared, so every case runs in its own death-test child.
 */

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/shutdown.h"

namespace lsqca::shutdown {
namespace {

class Shutdown : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Re-exec instead of a bare fork(): earlier tests in the same
        // process may have started threads.
        ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    }
};

/** Exit the death-test child: 0 when @p ok, else 1 with @p what. */
[[noreturn]] void
finish(bool ok, const char *what)
{
    if (!ok)
        std::fprintf(stderr, "failed: %s\n", what);
    std::fflush(stderr);
    ::_exit(ok ? 0 : 1);
}

TEST_F(Shutdown, NothingIsPendingWithoutASignal)
{
    EXPECT_EQ(pending(), 0);
    EXPECT_EXIT(
        {
            install();
            finish(pending() == 0, "pending() before any signal");
        },
        ::testing::ExitedWithCode(0), "");
}

TEST_F(Shutdown, SigtermIsRecordedInsteadOfKilling)
{
    // Without the handler, SIGTERM ends the process.
    EXPECT_EXIT(::raise(SIGTERM), ::testing::KilledBySignal(SIGTERM), "");
    EXPECT_EXIT(
        {
            install();
            ::raise(SIGTERM);
            finish(pending() == SIGTERM, "pending() == SIGTERM");
        },
        ::testing::ExitedWithCode(0), "");
}

TEST_F(Shutdown, SigintIsRecordedInsteadOfKilling)
{
    EXPECT_EXIT(
        {
            install();
            ::raise(SIGINT);
            finish(pending() == SIGINT, "pending() == SIGINT");
        },
        ::testing::ExitedWithCode(0), "");
}

TEST_F(Shutdown, InstallIsIdempotent)
{
    EXPECT_EXIT(
        {
            install();
            install();
            struct sigaction term = {};
            struct sigaction intr = {};
            ::sigaction(SIGTERM, nullptr, &term);
            ::sigaction(SIGINT, nullptr, &intr);
            if (term.sa_handler == SIG_DFL || term.sa_handler == SIG_IGN)
                finish(false, "SIGTERM handler installed");
            if (intr.sa_handler != term.sa_handler)
                finish(false, "one handler for SIGINT and SIGTERM");
            ::raise(SIGTERM);
            finish(pending() == SIGTERM, "pending() after two installs");
        },
        ::testing::ExitedWithCode(0), "");
}

TEST_F(Shutdown, ASignalInterruptsABlockedReadInsteadOfRestartingIt)
{
    EXPECT_EXIT(
        {
            install();
            // A hang here would mean SA_RESTART: SIGALRM ends it.
            ::alarm(10);
            int fds[2];
            if (::pipe(fds) != 0)
                finish(false, "pipe()");
            const pthread_t reader = ::pthread_self();
            std::thread signaller([reader] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
                ::pthread_kill(reader, SIGTERM);
            });
            char byte = 0;
            const ssize_t got = ::read(fds[0], &byte, 1);
            const int error = errno;
            signaller.join();
            if (got != -1 || error != EINTR)
                finish(false, "read() returns EINTR");
            finish(pending() == SIGTERM, "pending() == SIGTERM");
        },
        ::testing::ExitedWithCode(0), "");
}

TEST_F(Shutdown, SigpipeIsIgnoredSoAClosedPipeIsAnError)
{
    EXPECT_EXIT(
        {
            install();
            int fds[2];
            if (::pipe(fds) != 0)
                finish(false, "pipe()");
            ::close(fds[0]);
            const ssize_t wrote = ::write(fds[1], "x", 1);
            const int error = errno;
            if (wrote != -1 || error != EPIPE)
                finish(false, "write() to a closed pipe returns EPIPE");
            // A broken pipe is not a shutdown request.
            finish(pending() == 0, "pending() stays 0");
        },
        ::testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace lsqca::shutdown
