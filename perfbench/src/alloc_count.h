// Heap-allocation counter backed by the binary's replacement operator new.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made through operator new (any thread) since start-up.
std::uint64_t allocation_count() noexcept;

}  // namespace perfbench
