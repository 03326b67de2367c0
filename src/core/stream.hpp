// Mapped streaming data structures and device-resident tables.
//
// A *stream* is the paper's streamingMalloc/streamingMap object: an
// arbitrarily large host array that a kernel accesses in a streaming fashion
// through pseudo-virtual memory. A *table* is an ordinary device-resident
// structure (the K-means cluster array, Word Count's hash table, ...) that
// fits in GPU memory and is copied explicitly, outside BigKernel's purview.
//
// Kernels refer to both through small typed handles (StreamRef / TableRef)
// so that the same kernel source can be instantiated against every execution
// context: CPU, chunked GPU baselines, and BigKernel's address-generation
// and computation stages — the template equivalent of the paper's compiler
// transformation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace bigk::core {

/// A kernel broke its streaming contract while it ran: it touched a stream
/// element that its chunk, its generated addresses or its declared buffers do
/// not cover, or it wrote a read-only stream. Checked in every build, since
/// in Release the access would otherwise read or write the wrong bytes.
class KernelContractError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
// The throw of the kernel-contract checks. Its message takes std::to_string
// calls, so it lives out of line, where it costs nothing until it fires; the
// checks that guard it stay inline in every access.
[[noreturn, gnu::cold, gnu::noinline]] void throw_contract(
    const char* check, std::uint64_t value, std::uint64_t limit);
}  // namespace detail

/// Throws KernelContractError naming `check`, `value` and `limit` unless
/// `ok` holds.
inline void check_contract(bool ok, const char* check, std::uint64_t value,
                           std::uint64_t limit) {
  if (!ok) [[unlikely]] {
    detail::throw_contract(check, value, limit);
  }
}

namespace detail {
template <class Ctx, class T, class = void>
struct CtxValue {
  using type = T;
};
template <class Ctx, class T>
struct CtxValue<Ctx, T, std::void_t<typename Ctx::template Value<T>>> {
  using type = typename Ctx::template Value<T>;
};
}  // namespace detail

/// Context-dependent value type for kernel locals that hold stream or table
/// values. An abstract context may expose a `Value<T>` member alias wrapping
/// the values its read()/load_table() return (bigkstatic's taint context
/// wraps them in Tainted<T>); every executing context leaves it undefined
/// and kernels see plain T.
template <class Ctx, class T>
using Val = typename detail::CtxValue<Ctx, T>::type;

/// static_cast for kernel values. Abstract value wrappers overload this via
/// ADL (verify::Tainted<T> keeps its taint through casts), so kernels that
/// cast stream-derived values stay analyzable.
template <class To, class From>
  requires std::is_arithmetic_v<From>
constexpr To value_cast(From value) {
  return static_cast<To>(value);
}

/// How a kernel accesses a mapped stream.
enum class AccessMode : std::uint8_t {
  kReadOnly,
  kReadWrite,
};

/// Typed handle to a mapped stream (index into the engine's binding list).
template <class T>
struct StreamRef {
  std::uint32_t id = ~0u;
  bool valid() const noexcept { return id != ~0u; }
};

/// Typed handle to a device-resident table (index into a TableSet).
template <class T>
struct TableRef {
  std::uint32_t id = ~0u;
  bool valid() const noexcept { return id != ~0u; }
};

/// Type-erased description of one mapped stream.
struct StreamBinding {
  /// out_column's default: writes land in place, element for element.
  static constexpr std::uint32_t kWholeRecord = ~0u;

  /// The stream's host bytes, which every scheme reads. A read-only stream
  /// may view memory that other runs share (an app's dataset), so no path
  /// writes through this pointer.
  const std::byte* host_data = nullptr;
  /// Where writes and write-back scatters land, null on a read-only stream.
  /// In the whole-record layout these are host_data's bytes; with an output
  /// column they are one element per record, so host_data may stay shared.
  std::byte* host_out = nullptr;
  std::uint64_t num_elements = 0;
  std::uint32_t elem_size = 0;
  std::uint32_t host_region = 0;    // cache-model region id
  AccessMode mode = AccessMode::kReadOnly;

  /// Declared worst-case accesses per record (sizes the address/data
  /// buffers, like the compile-time analysis in the paper).
  std::uint32_t elems_per_record = 1;
  std::uint32_t reads_per_record = 1;
  std::uint32_t writes_per_record = 0;

  /// The one element of each record a read-write stream writes (K-means's
  /// cluster id), or kWholeRecord. With a column, record r's write lands at
  /// host_out[r] and a write to any other element breaks the contract. The
  /// stream's addresses, and so its traffic and cache lines, do not change.
  std::uint32_t out_column = kWholeRecord;

  std::uint64_t size_bytes() const noexcept {
    return num_elements * elem_size;
  }

  /// Throws std::invalid_argument naming out_column when the stream
  /// declares a column it cannot have: on a read-only stream, at or past
  /// elems_per_record, or with writes_per_record other than 1.
  void validate() const;

  /// The host_out bytes that records [0, records) write: their whole
  /// records, or their column elements. Empty on a read-only stream.
  std::span<const std::byte> out_prefix(std::uint64_t records) const {
    if (host_out == nullptr) return {};
    const std::uint64_t per_record =
        out_column == kWholeRecord ? elems_per_record : 1;
    const std::uint64_t elems =
        out_column == kWholeRecord
            ? num_elements
            : (num_elements + elems_per_record - 1) / elems_per_record;
    return {host_out, std::min(records * per_record, elems) * elem_size};
  }

  template <class T>
  T load(std::uint64_t index) const {
    check_size<T>();
    check_contract(index < num_elements, "stream read out of range", index,
                   num_elements);
    T value;
    std::memcpy(&value, host_data + index * sizeof(T), sizeof(T));
    return value;
  }

  template <class T>
  void store(std::uint64_t index, const T& value) const {
    check_size<T>();
    std::memcpy(out(index), &value, sizeof(T));
  }

  /// The bytes of element `index` for a write. Throws KernelContractError on
  /// a read-only stream, an index past the stream's end or, with an output
  /// column, an element of the record other than the column.
  std::byte* out(std::uint64_t index) const {
    check_contract(host_out != nullptr, "write to a read-only stream", index,
                   num_elements);
    check_contract(index < num_elements, "stream write out of range", index,
                   num_elements);
    if (out_column == kWholeRecord) return host_out + index * elem_size;
    check_contract(index % elems_per_record == out_column,
                   "stream write outside its output column",
                   index % elems_per_record, out_column);
    return host_out + index / elems_per_record * elem_size;
  }

 private:
  template <class T>
  void check_size() const {
    check_contract(sizeof(T) == elem_size, "stream element size mismatch",
                   sizeof(T), elem_size);
  }
};

/// Canonical (host-side) storage for kernel tables. Schemes that execute on
/// the simulated GPU materialize the set into device memory before the run
/// and copy results back afterwards; the CPU schemes operate on it directly.
class TableSet {
 public:
  template <class T>
  TableRef<T> add(std::uint64_t count) {
    Table table;
    table.elem_size = sizeof(T);
    table.count = count;
    table.bytes.resize(count * sizeof(T));
    tables_.push_back(std::move(table));
    return TableRef<T>{static_cast<std::uint32_t>(tables_.size() - 1)};
  }

  std::size_t size() const noexcept { return tables_.size(); }

  template <class T>
  std::span<T> host_span(TableRef<T> ref) {
    Table& table = tables_.at(ref.id);
    if (table.elem_size != sizeof(T)) {
      throw std::logic_error("TableRef type mismatch");
    }
    return {reinterpret_cast<T*>(table.bytes.data()), table.count};
  }

  template <class T>
  std::span<const T> host_span(TableRef<T> ref) const {
    const Table& table = tables_.at(ref.id);
    if (table.elem_size != sizeof(T)) {
      throw std::logic_error("TableRef type mismatch");
    }
    return {reinterpret_cast<const T*>(table.bytes.data()), table.count};
  }

  std::uint64_t table_bytes(std::uint32_t id) const {
    return tables_.at(id).bytes.size();
  }
  std::span<std::byte> raw_bytes(std::uint32_t id) {
    return tables_.at(id).bytes;
  }
  std::span<const std::byte> raw_bytes(std::uint32_t id) const {
    return tables_.at(id).bytes;
  }
  std::uint32_t elem_size(std::uint32_t id) const {
    return tables_.at(id).elem_size;
  }

  std::uint64_t total_bytes() const {
    std::uint64_t total = 0;
    for (const Table& t : tables_) total += t.bytes.size();
    return total;
  }

 private:
  struct Table {
    std::uint32_t elem_size = 0;
    std::uint64_t count = 0;
    std::vector<std::byte> bytes;
  };
  std::vector<Table> tables_;
};

}  // namespace bigk::core
