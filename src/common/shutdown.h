#ifndef LSQCA_COMMON_SHUTDOWN_H
#define LSQCA_COMMON_SHUTDOWN_H

/**
 * @file
 * Cooperative SIGINT/SIGTERM handling for the long-running entry
 * points (`lsqca submit|resume`). The handler only raises an
 * async-signal-safe flag; the orchestrator's drive loop polls it
 * between dispatches and runs the *orderly* path itself — reap the
 * children, save the queue, append a journal `shutdown` event —
 * instead of dying mid-write and leaning on torn-tail repair.
 */

namespace lsqca::shutdown {

/**
 * Install SIGINT+SIGTERM handlers that record the signal in a
 * `volatile sig_atomic_t` flag (and ignore SIGPIPE, so a closed
 * output pipe surfaces as EPIPE and the process still exits with its
 * campaign's code). Idempotent; no-op on repeat calls.
 */
void install();

/** The pending shutdown signal (SIGINT/SIGTERM), or 0 when none. */
int pending();

} // namespace lsqca::shutdown

#endif // LSQCA_COMMON_SHUTDOWN_H
