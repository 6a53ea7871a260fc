#include "alloc_hook.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {

namespace {

std::atomic<bool> g_counting{false};

// Totals of exited threads. Live threads count into their own
// thread-local slot, so pool workers never contend on a shared line.
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_calls{0};

struct LocalCounts {
  std::uint64_t bytes = 0;
  std::uint64_t calls = 0;
};
thread_local LocalCounts t_counts;  // trivially destructible

// Folds the thread's slot into the totals when the thread exits.
struct Flush {
  ~Flush() {
    g_bytes.fetch_add(t_counts.bytes, std::memory_order_relaxed);
    g_calls.fetch_add(t_counts.calls, std::memory_order_relaxed);
    t_counts = {};
  }
};
thread_local Flush t_flush;

void count(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    static_cast<void>(&t_flush);  // registers the exit-time flush
    t_counts.bytes += size;
    ++t_counts.calls;
  }
}

void* allocate(std::size_t size, std::size_t alignment) {
  count(size);
  if (size == 0) {
    size = 1;
  }
  for (;;) {
    void* p = alignment <= alignof(std::max_align_t)
                  ? std::malloc(size)
                  : std::aligned_alloc(
                        alignment, (size + alignment - 1) / alignment * alignment);
    if (p != nullptr) {
      return p;
    }
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) {
      throw std::bad_alloc{};
    }
    handler();
  }
}

}  // namespace

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCounts alloc_counts() {
  return AllocCounts{
      g_bytes.load(std::memory_order_relaxed) + t_counts.bytes,
      g_calls.load(std::memory_order_relaxed) + t_counts.calls};
}

}  // namespace perfbench

// The library's array and nothrow forms forward to these.
void* operator new(std::size_t size) {
  return perfbench::allocate(size, alignof(std::max_align_t));
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  return perfbench::allocate(size, static_cast<std::size_t>(alignment));
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }

void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
