// Internal to graph/: the page-backed storage of the edge-list readers and
// the flat id table the kCompact readers number nodes with
// (graph/edge_ranges.hpp, graph/shard_loader.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sgp::graph::detail {

/// Whole pages from the kernel (mmap), returned on deallocate (munmap). The
/// ranges' parts, tables and buffers are filled on pool threads, and memory
/// a thread frees to malloc stays resident in that thread's arena, where no
/// other thread reuses it; pages from here leave the resident set when the
/// part is freed.
void* map_pages(std::size_t bytes);
void unmap_pages(void* pages, std::size_t bytes) noexcept;

template <typename T>
struct PageAllocator {
  using value_type = T;
  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>& /*other*/) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(map_pages(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    unmap_pages(p, n * sizeof(T));
  }
  friend bool operator==(const PageAllocator&, const PageAllocator&) {
    return true;
  }
};

template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

/// Raw uint64 id → dense uint32 index, in first-insertion order. Open
/// addressing with linear probing: a slot holds index + 1 (0 is empty), and
/// keys() is the insertion-ordered id list the slots point into, so the
/// table costs 8 bytes per id plus 8 to 16 per id of slots at a load of at
/// most one half.
class IdTable {
 public:
  static constexpr std::uint32_t kMissing = 0xFFFFFFFFU;

  /// The index of `raw`, inserting it as the next index if it is new.
  std::uint32_t intern(std::uint64_t raw) {
    if (2 * (keys_.size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = slot_of(raw);; s = (s + 1) & mask) {
      const std::uint32_t held = slots_[s];
      if (held == 0) {
        keys_.push_back(raw);
        slots_[s] = static_cast<std::uint32_t>(keys_.size());
        return static_cast<std::uint32_t>(keys_.size() - 1);
      }
      if (keys_[held - 1] == raw) return held - 1;
    }
  }

  /// The index of `raw`, or kMissing.
  [[nodiscard]] std::uint32_t find(std::uint64_t raw) const {
    if (slots_.empty()) return kMissing;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = slot_of(raw);; s = (s + 1) & mask) {
      const std::uint32_t held = slots_[s];
      if (held == 0) return kMissing;
      if (keys_[held - 1] == raw) return held - 1;
    }
  }

  [[nodiscard]] std::size_t size() const { return keys_.size(); }

  /// Every id, in first-insertion order.
  [[nodiscard]] std::span<const std::uint64_t> keys() const { return keys_; }

 private:
  /// Fibonacci hashing: the top bits of raw · 2^64/φ.
  [[nodiscard]] std::size_t slot_of(std::uint64_t raw) const {
    return static_cast<std::size_t>((raw * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  void grow();

  PageVector<std::uint64_t> keys_;
  PageVector<std::uint32_t> slots_;
  unsigned shift_ = 64;
};

}  // namespace sgp::graph::detail
