#include "common/shutdown.h"

#include <csignal>

namespace lsqca::shutdown {
namespace {

volatile std::sig_atomic_t gSignal = 0;
bool gInstalled = false;

extern "C" void
handleShutdownSignal(int signal)
{
    gSignal = signal;
}

} // namespace

void
install()
{
    if (gInstalled)
        return;
    gInstalled = true;
    struct sigaction action = {};
    action.sa_handler = handleShutdownSignal;
    sigemptyset(&action.sa_mask);
    // No SA_RESTART: a signal must interrupt the drive loop's sleeps
    // promptly, not after the next timeout.
    action.sa_flags = 0;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
    std::signal(SIGPIPE, SIG_IGN);
}

int
pending()
{
    return static_cast<int>(gSignal);
}

} // namespace lsqca::shutdown
