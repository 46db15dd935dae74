// StateMap, the frontier solver's mask -> slot table. The slot-indexed
// wave eval_states_sparse is defined in kernel.cpp, next to the dense wave
// whose scalar tile it shares.
#include "tt/kernel_sparse.hpp"

#include <algorithm>

namespace ttp::tt {

void StateMap::reset(std::size_t expected) {
  std::size_t want = 16;
  while (want < expected * 2) want <<= 1;
  if (cells_.size() < want || cells_.size() > kMaxSlack * want) {
    cells_ = std::vector<Cell>(want, Cell{kEmptyKey, 0});  // frees the old
  } else {
    std::fill(cells_.begin(), cells_.end(), Cell{kEmptyKey, 0});
  }
  index_mask_ = cells_.size() - 1;
  size_ = 0;
}

void StateMap::rehash(std::size_t capacity_pow2) {
  std::vector<Cell> old = std::move(cells_);
  cells_.assign(capacity_pow2, Cell{kEmptyKey, 0});
  index_mask_ = capacity_pow2 - 1;
  for (const Cell& c : old) {
    if (c.key == kEmptyKey) continue;
    std::size_t i = hash(c.key) & index_mask_;
    while (cells_[i].key != kEmptyKey) i = (i + 1) & index_mask_;
    cells_[i] = c;
  }
}

bool StateMap::insert(Mask key, std::uint32_t value) {
  assert(static_cast<std::uint32_t>(key) != kEmptyKey &&
         "StateMap: the all-ones mask is the empty sentinel");
  if (cells_.empty()) reset(16);
  std::size_t i = hash(key) & index_mask_;
  while (cells_[i].key != kEmptyKey) {
    if (cells_[i].key == key) return false;
    i = (i + 1) & index_mask_;
  }
  // Only a new key can grow the table: the expansion inserts every child,
  // and most are already present.
  if ((size_ + 1) * 2 > cells_.size()) {
    rehash(cells_.size() * 2);
    i = hash(key) & index_mask_;
    while (cells_[i].key != kEmptyKey) i = (i + 1) & index_mask_;
  }
  cells_[i] = Cell{static_cast<std::uint32_t>(key), value};
  ++size_;
  return true;
}

}  // namespace ttp::tt
