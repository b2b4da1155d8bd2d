// Flat map from a valid tid to a row position, the tid index of Relation.
//
// Open addressing with linear probing over a power-of-two slot array. Tid 0
// (TupleId::invalid()) marks an empty slot, so a slot is 16 bytes and a copy
// is one contiguous vector copy. Erase shifts the rest of the probe chain
// back (Knuth's Algorithm R), so there are no tombstones and lookups never
// degrade after churn.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "relation/tuple.hpp"

namespace cq::rel {

class TidMap {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Home slot of `tid` in a table of `capacity` slots (a power of two).
  /// Fibonacci hashing spreads the dense, sequential tids of a base table.
  [[nodiscard]] static std::size_t home(TupleId tid, std::size_t capacity) noexcept {
    return static_cast<std::size_t>((tid.raw() * 0x9E3779B97F4A7C15ULL) >>
                                    (64 - std::countr_zero(capacity)));
  }

  /// Row of `tid`, or null when absent (always null for the invalid tid).
  [[nodiscard]] std::size_t* find(TupleId tid) noexcept {
    const std::size_t i = slot_of(tid);
    return i == kAbsent ? nullptr : &slots_[i].row;
  }
  [[nodiscard]] const std::size_t* find(TupleId tid) const noexcept {
    const std::size_t i = slot_of(tid);
    return i == kAbsent ? nullptr : &slots_[i].row;
  }
  [[nodiscard]] bool contains(TupleId tid) const noexcept { return find(tid) != nullptr; }

  /// Map a valid `tid` to `row`, inserting it when absent.
  void assign(TupleId tid, std::size_t row) {
    if (std::size_t* existing = find(tid)) {
      *existing = row;
      return;
    }
    if (4 * (size_ + 1) > 3 * slots_.size()) grow();
    place(tid.raw(), row);
    ++size_;
  }

  /// Remove `tid`; returns false when it was absent.
  bool erase(TupleId tid) noexcept {
    std::size_t i = slot_of(tid);
    if (i == kAbsent) return false;
    const std::size_t mask = slots_.size() - 1;
    // The hole sits at i; pull back every later chain entry whose home does
    // not lie cyclically in (i, j], i.e. that a lookup would no longer reach.
    for (std::size_t j = (i + 1) & mask; slots_[j].tid != 0; j = (j + 1) & mask) {
      const std::size_t h = home(TupleId(slots_[j].tid), slots_.size());
      if (((j - h) & mask) >= ((j - i) & mask)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
    return true;
  }

 private:
  struct Slot {
    TupleId::rep tid = 0;
    std::size_t row = 0;
  };
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t slot_of(TupleId tid) const noexcept {
    if (size_ == 0 || !tid.valid()) return kAbsent;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(tid, slots_.size());; i = (i + 1) & mask) {
      if (slots_[i].tid == tid.raw()) return i;
      if (slots_[i].tid == 0) return kAbsent;
    }
  }

  void place(TupleId::rep tid, std::size_t row) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(TupleId(tid), slots_.size());
    while (slots_[i].tid != 0) i = (i + 1) & mask;
    slots_[i] = Slot{tid, row};
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 8 : 2 * slots_.size());
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.tid != 0) place(s.tid, s.row);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace cq::rel
