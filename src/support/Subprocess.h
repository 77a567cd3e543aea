//===- support/Subprocess.h - fork/exec child processes ---------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The minimal process-spawning layer the serve router needs: it forks
/// ipcp-serve backends and talks to them over TCP — never through
/// inherited descriptors, so a child is fully described by its argv.
/// POSIX-only, like the TCP transport.
///
/// Waiting distinguishes clean exits from crashes (signals, nonzero
/// status): the coordinator's crash-recovery path keys off that
/// distinction, reassigning a dead worker's partition instead of
/// trusting partial output.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_SUPPORT_SUBPROCESS_H
#define IPCP_SUPPORT_SUBPROCESS_H

#include <string>
#include <vector>

namespace ipcp {

/// Outcome of a finished child.
struct ProcessExit {
  bool Exited = false;   ///< Ran to _exit/return (vs. killed by a signal).
  int ExitCode = -1;     ///< Valid when Exited.
  int Signal = 0;        ///< Terminating signal when !Exited.

  bool ok() const { return Exited && ExitCode == 0; }
  /// "exit 3" / "signal 9" for diagnostics.
  std::string str() const;
};

/// A spawned child process. Move-only; the destructor asserts the child
/// was waited for or detached — silently leaking zombies is how crash
/// recovery bugs hide.
class Subprocess {
public:
  Subprocess() = default;
  ~Subprocess();

  Subprocess(Subprocess &&Other) noexcept;
  Subprocess &operator=(Subprocess &&Other) noexcept;
  Subprocess(const Subprocess &) = delete;
  Subprocess &operator=(const Subprocess &) = delete;

  /// Forks and execs \p Argv (Argv[0] is the binary path). The child's
  /// stdin reads /dev/null; stdout/stderr are redirected to the named
  /// files when non-empty, else inherited. Returns false with a
  /// diagnostic on failure (including an exec failure, reported by the
  /// child through its exit status on first wait).
  bool spawn(const std::vector<std::string> &Argv,
             const std::string &StdoutPath, const std::string &StderrPath,
             std::string &Error);

  bool running() const { return Pid > 0 && !Waited; }
  long pid() const { return Pid; }

  /// Blocks until the child exits and returns its outcome. Idempotent:
  /// later calls return the recorded outcome.
  ProcessExit wait();

  /// SIGKILLs the child (no-op if already waited). Callers still wait()
  /// to reap.
  void kill();

private:
  long Pid = -1;
  bool Waited = false;
  ProcessExit Exit;
};

/// Absolute path of the running executable (/proc/self/exe); empty on
/// failure. The router spawns this binary when no serve binary is named,
/// so an ipcp-serve front tier never guesses at install locations.
std::string currentExecutablePath();

} // namespace ipcp

#endif // IPCP_SUPPORT_SUBPROCESS_H
