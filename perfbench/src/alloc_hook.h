// Allocation counters. alloc_hook.cc replaces the
// global operator new/delete of perfbench_ledger only, so the library is
// measured from outside and perfbench_e2e pays nothing.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t bytes = 0;
  std::uint64_t calls = 0;
};

/// Turns counting on or off for every thread (off at start).
void set_alloc_counting(bool on);

/// Bytes and calls counted so far on the calling thread and on every
/// thread that has exited. Read it after joining the threads of interest.
[[nodiscard]] AllocCounts alloc_counts();

}  // namespace perfbench
