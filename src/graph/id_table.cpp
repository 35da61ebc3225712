#include "graph/id_table.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <new>

namespace sgp::graph::detail {

void* map_pages(std::size_t bytes) {
  void* pages = ::mmap(nullptr, std::max<std::size_t>(bytes, 1),
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  return pages;
}

void unmap_pages(void* pages, std::size_t bytes) noexcept {
  ::munmap(pages, std::max<std::size_t>(bytes, 1));
}

void IdTable::grow() {
  const std::size_t capacity = slots_.empty() ? 1024 : 2 * slots_.size();
  slots_.assign(capacity, 0);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  const std::size_t mask = capacity - 1;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    std::size_t s = slot_of(keys_[i]);
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<std::uint32_t>(i + 1);
  }
}

}  // namespace sgp::graph::detail
