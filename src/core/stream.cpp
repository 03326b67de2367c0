#include "core/stream.hpp"

#include <string>

namespace bigk::core {

namespace detail {

void throw_contract(const char* check, std::uint64_t value,
                    std::uint64_t limit) {
  std::string message = "kernel contract: ";
  message += check;
  message += " (" + std::to_string(value) + " against " +
             std::to_string(limit) + ")";
  throw KernelContractError(message);
}

}  // namespace detail

void StreamBinding::validate() const {
  if (out_column == kWholeRecord) return;
  const std::string column = "out_column " + std::to_string(out_column);
  if (mode != AccessMode::kReadWrite) {
    throw std::invalid_argument(column +
                                " is declared on a read-only stream, which "
                                "writes nothing");
  }
  if (out_column >= elems_per_record) {
    throw std::invalid_argument(column + " is not an element of a " +
                                std::to_string(elems_per_record) +
                                "-element record (elems_per_record)");
  }
  if (writes_per_record != 1) {
    throw std::invalid_argument(
        column + " holds one write per record, but the stream declares " +
        std::to_string(writes_per_record) + " (writes_per_record)");
  }
}

}  // namespace bigk::core
