//===- support/Subprocess.cpp - fork/exec child processes -----------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Subprocess.h"

#include <cassert>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace ipcp;

std::string ProcessExit::str() const {
  if (Exited)
    return "exit " + std::to_string(ExitCode);
  return "signal " + std::to_string(Signal);
}

Subprocess::~Subprocess() {
  // Reap rather than leak: an unwaited child would outlive its
  // coordinator as a zombie and make crash tests flaky.
  if (Pid > 0 && !Waited) {
    kill();
    wait();
  }
}

Subprocess::Subprocess(Subprocess &&Other) noexcept
    : Pid(Other.Pid), Waited(Other.Waited), Exit(Other.Exit) {
  Other.Pid = -1;
  Other.Waited = false;
}

Subprocess &Subprocess::operator=(Subprocess &&Other) noexcept {
  if (this != &Other) {
    if (Pid > 0 && !Waited) {
      kill();
      wait();
    }
    Pid = Other.Pid;
    Waited = Other.Waited;
    Exit = Other.Exit;
    Other.Pid = -1;
    Other.Waited = false;
  }
  return *this;
}

bool Subprocess::spawn(const std::vector<std::string> &Argv,
                       const std::string &StdoutPath,
                       const std::string &StderrPath, std::string &Error) {
  // A reaped child may be replaced by a fresh one in the same slot.
  // Only spawning over a live (unreaped) child is a bug.
  assert((Pid <= 0 || Waited) && "spawn() on a live Subprocess");
  if (Argv.empty()) {
    Error = "empty argv";
    return false;
  }
  std::vector<char *> CArgv;
  CArgv.reserve(Argv.size() + 1);
  for (const std::string &A : Argv)
    CArgv.push_back(const_cast<char *>(A.c_str()));
  CArgv.push_back(nullptr);

  pid_t Child = ::fork();
  if (Child < 0) {
    Error = std::string("fork failed: ") + std::strerror(errno);
    return false;
  }
  if (Child == 0) {
    // Child. Only async-signal-safe calls until exec.
    int DevNull = ::open("/dev/null", O_RDONLY);
    if (DevNull >= 0) {
      ::dup2(DevNull, STDIN_FILENO);
      ::close(DevNull);
    }
    auto Redirect = [](const std::string &Path, int Fd) {
      if (Path.empty())
        return true;
      int File = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (File < 0)
        return false;
      ::dup2(File, Fd);
      ::close(File);
      return true;
    };
    if (!Redirect(StdoutPath, STDOUT_FILENO) ||
        !Redirect(StderrPath, STDERR_FILENO))
      ::_exit(127);
    ::execv(CArgv[0], CArgv.data());
    ::_exit(127); // Exec failed; 127 is the shell's convention for it.
  }
  Pid = Child;
  Waited = false;
  return true;
}

ProcessExit Subprocess::wait() {
  if (Waited || Pid <= 0)
    return Exit;
  int Status = 0;
  pid_t R;
  do {
    R = ::waitpid(static_cast<pid_t>(Pid), &Status, 0);
  } while (R < 0 && errno == EINTR);
  Waited = true;
  if (R < 0) {
    Exit = {};
    return Exit;
  }
  if (WIFEXITED(Status)) {
    Exit.Exited = true;
    Exit.ExitCode = WEXITSTATUS(Status);
  } else if (WIFSIGNALED(Status)) {
    Exit.Exited = false;
    Exit.Signal = WTERMSIG(Status);
  }
  return Exit;
}

void Subprocess::kill() {
  if (Pid > 0 && !Waited)
    ::kill(static_cast<pid_t>(Pid), SIGKILL);
}

std::string ipcp::currentExecutablePath() {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return "";
  Buf[N] = '\0';
  return Buf;
}
