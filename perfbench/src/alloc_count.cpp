// Global operator new/delete replacements that count heap allocations.
// They live only in the benchmark binary: the library is untouched, and
// the count is a deterministic work counter (core.allocs_per_step).
#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc needs the size to be a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

std::uint64_t allocation_count() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
