// Counting-allocator hook (linked from bbrnash_alloccount).
#include "alloc_probe.hpp"

#include "util/alloc_counter.hpp"

namespace perfbench {

std::uint64_t alloc_calls() noexcept { return bbrnash::allocs::news(); }

}  // namespace perfbench
