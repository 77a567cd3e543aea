//===- support/ThreadPool.cpp - Reusable worker-thread pool ---------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>

using namespace ipcp;

static std::atomic<uint64_t> PoolsCreated{0};

unsigned ThreadPool::hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

uint64_t ThreadPool::poolsCreated() {
  return PoolsCreated.load(std::memory_order_relaxed);
}

ThreadPool::ThreadPool(unsigned Threads) {
  PoolsCreated.fetch_add(1, std::memory_order_relaxed);
  if (Threads == 0)
    Threads = hardwareThreads();
  Workers.reserve(Threads);
  for (unsigned I = 0; I != Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::post(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push(std::move(Task));
    ++Outstanding;
  }
  WorkReady.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllDone.wait(Lock, [this] { return Outstanding == 0; });
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkReady.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping, queue drained.
      Task = std::move(Queue.front());
      Queue.pop();
    }
    Task();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (--Outstanding == 0)
        AllDone.notify_all();
    }
  }
}

void ipcp::parallelFor(ThreadPool *Pool, size_t N,
                       const std::function<void(size_t)> &Fn) {
  if (N == 0)
    return;
  if (!Pool || Pool->size() == 0 || N == 1) {
    for (size_t I = 0; I != N; ++I)
      Fn(I);
    return;
  }

  // Dynamic index claiming: worker count and scheduling affect only who
  // runs an index, never which indices run or what they may observe
  // (per the parallelFor contract).
  struct SharedState {
    std::atomic<size_t> Next{0};
    std::mutex Mutex;
    std::condition_variable Done;
    size_t Active = 0; ///< Helpers not yet finished; guarded by Mutex.
  } State;

  auto Drain = [&State, &Fn, N] {
    for (size_t I; (I = State.Next.fetch_add(1)) < N;)
      Fn(I);
  };

  size_t Helpers = std::min<size_t>(Pool->size(), N);
  State.Active = Helpers;
  for (size_t T = 0; T != Helpers; ++T)
    Pool->post([&State, Drain] {
      Drain();
      // State lives on the caller's stack and dies as soon as the caller
      // sees Active reach zero, so the count drops and the notify happens
      // under the lock: the caller cannot observe zero until this helper
      // has finished touching State.
      std::lock_guard<std::mutex> Lock(State.Mutex);
      if (--State.Active == 0)
        State.Done.notify_one();
    });

  Drain(); // The calling thread participates too.

  std::unique_lock<std::mutex> Lock(State.Mutex);
  State.Done.wait(Lock, [&State] { return State.Active == 0; });
}
