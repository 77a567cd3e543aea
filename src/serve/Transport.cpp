//===- serve/Transport.cpp - stdio and TCP line pumps ---------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Transport.h"

#include "serve/Server.h"

#include <condition_variable>
#include <istream>
#include <mutex>
#include <ostream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace ipcp;

namespace {

const std::string OverlongMessage =
    "request line exceeds " + std::to_string(MaxRequestLineBytes) + " bytes";

/// Reads the next line of \p In (newline stripped) into \p Line. Returns
/// false at end of input with nothing read. A line over
/// MaxRequestLineBytes is consumed through its newline but not kept:
/// \p Overlong is set and \p Line is empty.
bool readBoundedLine(std::istream &In, std::string &Line, bool &Overlong) {
  Line.clear();
  Overlong = false;
  std::streambuf *Buf = In.rdbuf();
  for (;;) {
    int C = Buf->sbumpc();
    if (C == std::char_traits<char>::eof())
      return !Line.empty() || Overlong;
    if (C == '\n')
      return true;
    if (Overlong)
      continue;
    if (Line.size() == MaxRequestLineBytes) {
      Overlong = true;
      std::string().swap(Line);
      continue;
    }
    Line.push_back(static_cast<char>(C));
  }
}

} // namespace

void ipcp::serveStream(Server &S, std::istream &In, std::ostream &Out) {
  std::mutex WriteMutex; // Replies land from worker threads; serialize.
  std::mutex DoneMutex;
  std::condition_variable DoneCv;
  size_t Outstanding = 0;
  auto Write = [&](const std::string &Reply) {
    std::lock_guard<std::mutex> Lock(WriteMutex);
    Out << Reply << '\n';
    Out.flush();
  };

  std::string Line;
  bool Overlong = false;
  while (readBoundedLine(In, Line, Overlong)) {
    if (Overlong) {
      Write(S.malformed(OverlongMessage));
      continue;
    }
    if (Line.empty())
      continue;
    {
      std::lock_guard<std::mutex> Lock(DoneMutex);
      ++Outstanding;
    }
    S.submit(Line, [&](std::string Reply) {
      Write(Reply);
      std::lock_guard<std::mutex> Lock(DoneMutex);
      --Outstanding;
      DoneCv.notify_all();
    });
    if (S.draining())
      break; // A shutdown request: stop reading, let the tail drain.
  }

  std::unique_lock<std::mutex> Lock(DoneMutex);
  DoneCv.wait(Lock, [&] { return Outstanding == 0; });
}

namespace {

/// Sends all of \p Data, suppressing SIGPIPE (a client that hangs up
/// mid-reply must not kill the server).
void sendAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (N <= 0)
      return;
    Off += static_cast<size_t>(N);
  }
}

/// Serves one connection synchronously: read a line, answer it, repeat
/// until the client hangs up or the listener shuts the read side down.
/// Within a connection requests serialize; across connections the
/// server interleaves them. The listener owns and closes \p Fd.
void serveConnection(int Fd, Server &S) {
  std::string Buffer;
  size_t Scanned = 0;    // Buffer[0, Scanned) holds no newline.
  bool Overlong = false; // Buffer is the tail of an over-long line.
  char Chunk[4096];
  for (;;) {
    size_t Nl;
    while ((Nl = Buffer.find('\n', Scanned)) == std::string::npos) {
      Scanned = Buffer.size();
      if (Scanned > MaxRequestLineBytes) {
        Overlong = true;
        Buffer.clear();
        Scanned = 0;
      }
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        return;
      Buffer.append(Chunk, static_cast<size_t>(N));
    }
    std::string Line = Buffer.substr(0, Nl);
    Buffer.erase(0, Nl + 1);
    Scanned = 0;
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Overlong || Line.size() > MaxRequestLineBytes) {
      Overlong = false;
      sendAll(Fd, S.malformed(OverlongMessage) + "\n");
      continue;
    }
    if (Line.empty())
      continue;
    sendAll(Fd, S.handle(Line) + "\n");
  }
}

} // namespace

TcpListener::~TcpListener() {
  stop();
  if (Fd >= 0)
    ::close(Fd);
  closeConnections();
}

bool TcpListener::listen(uint16_t Port, std::string &Error) {
  Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = "socket() failed";
    return false;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Error = "bind(127.0.0.1:" + std::to_string(Port) + ") failed";
    ::close(Fd);
    Fd = -1;
    return false;
  }
  if (::listen(Fd, 64) < 0) {
    Error = "listen() failed";
    ::close(Fd);
    Fd = -1;
    return false;
  }

  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
    BoundPort = ntohs(Addr.sin_port);
  else
    BoundPort = Port;
  return true;
}

void TcpListener::reapFinished() {
  for (auto It = Conns.begin(); It != Conns.end();) {
    if (!It->Done.load(std::memory_order_acquire)) {
      ++It;
      continue;
    }
    It->Thread.join();
    ::close(It->Fd);
    It = Conns.erase(It);
  }
}

void TcpListener::closeConnections() {
  // Shutting the read side wakes a thread blocked in recv() (it sees
  // end of stream); a thread inside Server::handle() still writes its
  // reply, then finds the stream ended.
  for (Connection &C : Conns)
    ::shutdown(C.Fd, SHUT_RD);
  for (Connection &C : Conns) {
    if (C.Thread.joinable())
      C.Thread.join();
    ::close(C.Fd);
  }
  Conns.clear();
}

void TcpListener::run(Server &S) {
  while (!Stopping.load(std::memory_order_acquire) && !S.draining()) {
    reapFinished();
    pollfd Pfd = {Fd, POLLIN, 0};
    int N = ::poll(&Pfd, 1, /*timeout_ms=*/200);
    if (N < 0)
      break;
    if (N == 0 || !(Pfd.revents & POLLIN))
      continue;
    int Client = ::accept(Fd, nullptr, nullptr);
    if (Client < 0)
      continue;
    Connection &C = Conns.emplace_back();
    C.Fd = Client;
    C.Thread = std::thread([&C, &S] {
      serveConnection(C.Fd, S);
      C.Done.store(true, std::memory_order_release);
    });
  }
  closeConnections();
}
