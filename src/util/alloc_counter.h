// Counts every global operator new of the binary that includes this header.
//
// The header *defines* the replaceable global allocation and deallocation
// functions, so exactly one source file of a test or bench binary includes
// it, and no library code does. Allocations take their memory from
// malloc/aligned_alloc and deallocations free it, so the pairs stay matched
// under AddressSanitizer too. tests/vfs_alloc_test.cc and
// bench/vfs_op_bench.cc use it to check that the VFS operation pipeline
// allocates nothing at steady state.
#ifndef SRC_UTIL_ALLOC_COUNTER_H_
#define SRC_UTIL_ALLOC_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace fsbench {

// Relaxed atomics keep the count valid if a library thread ever allocates.
inline std::atomic<uint64_t> g_alloc_count{0};

// Global operator new calls so far.
inline uint64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

}  // namespace fsbench

void* operator new(std::size_t size) {
  fsbench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  fsbench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(alignment, (size + alignment - 1) & ~(alignment - 1))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

#endif  // SRC_UTIL_ALLOC_COUNTER_H_
