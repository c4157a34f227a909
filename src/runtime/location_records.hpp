#pragma once
// Per-PE location records (DESIGN.md §15).
//
// One flat open-addressing table per PE answers both questions a point send
// asks about an index: "is the element here?" and "where did this PE last
// learn it lives?".  Slots live in one power-of-two array probed linearly, so
// a hit is one hash, one masked load, and a key compare — no per-entry heap
// node and no bucket-list walk.  A slot is 24 bytes: the 16-byte key plus an
// 8-byte record.  Records are never erased one at a time (a record whose
// element left keeps its cached location, exactly like the location cache it
// replaces); clear() drops them all.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/index.hpp"
#include "runtime/types.hpp"

namespace charm {

/// What one PE knows about one index.
struct LocRecord {
  static constexpr std::int32_t kNotHosted = -1;
  /// Position of the element in its PE's hosted list (PeLocal::hosted) while
  /// the PE hosts it; kNotHosted otherwise.
  std::int32_t hosted = kNotHosted;
  std::int32_t cached_pe = kInvalidPe;  ///< last location this PE was taught
};

class LocationRecords {
 public:
  /// The record for `ix`, or nullptr.  The pointer is valid until the next
  /// insert() or clear().
  LocRecord* find(const ObjIndex& ix) {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = ObjIndexHash{}(ix) & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.rec.hosted == kFree) return nullptr;
      if (s.idx == ix) return &s.rec;
    }
  }

  /// The record for `ix`, default-constructed when absent.  Growing
  /// rehashes, so earlier record pointers go stale.
  LocRecord& insert(const ObjIndex& ix) {
    if (LocRecord* r = find(ix)) return *r;
    if (4 * (size_ + 1) > 3 * slots_.size()) grow();
    ++size_;
    Slot& s = slots_[free_slot(ix)];
    s.idx = ix;
    s.rec = LocRecord{};
    return s.rec;
  }

  /// Drops every record; keeps the slot array for reuse.
  void clear() {
    for (Slot& s : slots_) s.rec.hosted = kFree;
    size_ = 0;
  }

  std::size_t size() const { return size_; }

  /// Visits every record (slot order; tests and audits only).
  template <class F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_)
      if (s.rec.hosted != kFree) f(s.idx, s.rec);
  }

 private:
  /// Marks an unused slot; a live record's position is >= kNotHosted.
  static constexpr std::int32_t kFree = -2;
  static constexpr std::size_t kInitialSlots = 8;

  struct Slot {
    ObjIndex idx;
    LocRecord rec{kFree, kInvalidPe};
  };

  std::size_t free_slot(const ObjIndex& ix) const {
    std::size_t i = ObjIndexHash{}(ix) & mask_;
    while (slots_[i].rec.hosted != kFree) i = (i + 1) & mask_;
    return i;
  }

  /// Doubles the slot array (load factor stays <= 3/4) and re-places every
  /// record.
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(), Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old)
      if (s.rec.hosted != kFree) slots_[free_slot(s.idx)] = s;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace charm
