//===- AllocCounter.cpp - Replacement global operator new/delete ----------===//

#include "AllocCounter.h"

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>

using namespace perfbench;

namespace {

std::atomic<unsigned> Depth{0};
std::atomic<uint64_t> Count{0};
std::atomic<uint64_t> Bytes{0};

void *allocate(std::size_t N, std::size_t Align, bool NoThrow) {
  if (Depth.load(std::memory_order_relaxed) != 0) {
    Count.fetch_add(1, std::memory_order_relaxed);
    Bytes.fetch_add(N, std::memory_order_relaxed);
  }
  const std::size_t Size = N == 0 ? 1 : N;
  void *P = nullptr;
  if (Align <= alignof(std::max_align_t))
    P = std::malloc(Size);
  else
    P = std::aligned_alloc(Align, (Size + Align - 1) / Align * Align);
  if (!P && !NoThrow) {
    std::fputs("perfbench: out of memory\n", stderr);
    std::abort();
  }
  return P;
}

} // namespace

AllocScope::AllocScope() {
  Start = {Count.load(std::memory_order_relaxed),
           Bytes.load(std::memory_order_relaxed)};
  Depth.fetch_add(1, std::memory_order_relaxed);
}

AllocScope::~AllocScope() { stop(); }

AllocTotals AllocScope::stop() {
  if (Running) {
    Depth.fetch_sub(1, std::memory_order_relaxed);
    Running = false;
    Start = {Count.load(std::memory_order_relaxed) - Start.Count,
             Bytes.load(std::memory_order_relaxed) - Start.Bytes};
  }
  return Start;
}

void *operator new(std::size_t N) { return allocate(N, 0, false); }
void *operator new[](std::size_t N) { return allocate(N, 0, false); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return allocate(N, 0, true);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return allocate(N, 0, true);
}
void *operator new(std::size_t N, std::align_val_t A) {
  return allocate(N, static_cast<std::size_t>(A), false);
}
void *operator new[](std::size_t N, std::align_val_t A) {
  return allocate(N, static_cast<std::size_t>(A), false);
}
void *operator new(std::size_t N, std::align_val_t A,
                   const std::nothrow_t &) noexcept {
  return allocate(N, static_cast<std::size_t>(A), true);
}
void *operator new[](std::size_t N, std::align_val_t A,
                     const std::nothrow_t &) noexcept {
  return allocate(N, static_cast<std::size_t>(A), true);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t,
                     const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::align_val_t,
                       const std::nothrow_t &) noexcept {
  std::free(P);
}
