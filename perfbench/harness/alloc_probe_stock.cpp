// Stock allocator: nothing is counted.
#include "alloc_probe.hpp"

namespace perfbench {

std::uint64_t alloc_calls() noexcept { return 0; }

}  // namespace perfbench
