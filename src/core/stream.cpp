#include "core/stream.hpp"

#include <string>

namespace bigk::core::detail {

void throw_contract(const char* check, std::uint64_t value,
                    std::uint64_t limit) {
  std::string message = "kernel contract: ";
  message += check;
  message += " (" + std::to_string(value) + " against " +
             std::to_string(limit) + ")";
  throw KernelContractError(message);
}

}  // namespace bigk::core::detail
