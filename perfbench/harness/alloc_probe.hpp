// Allocation counter seen by the harness. Which implementation a binary
// gets is decided at link time (see CMakeLists.txt).
#pragma once

#include <cstdint>

namespace perfbench {

/// Global operator new calls since process start (0 when not counting).
[[nodiscard]] std::uint64_t alloc_calls() noexcept;

}  // namespace perfbench
