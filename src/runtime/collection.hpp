#pragma once
// Internal per-collection state: element storage, the distributed location
// directory (home tables + per-PE location records), and reduction slots.
//
// Memory is logically partitioned per PE: a PE's handler only touches its own
// PeLocal block; cross-PE effects travel as messages.  This is what makes the
// emulation faithful to the paper's distributed location manager (§II-D):
// each PE holds O(local elements + homes hashed to it), never O(total).

#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/callback.hpp"
#include "runtime/chare.hpp"
#include "runtime/envelope.hpp"
#include "runtime/location_records.hpp"
#include "runtime/types.hpp"
#include "sim/paged_table.hpp"

namespace charm {

/// Home-table record: the authoritative location of one element.
struct HomeRecord {
  int location = kInvalidPe;
  bool in_transit = false;
  std::uint32_t arrived_epoch = 0;       ///< last migration epoch seen complete
  std::vector<Envelope> buffered;        ///< messages parked during migration
};

/// One reduction's combined state.  Used both as the collection-global slot
/// (flat combine / tree bookkeeping) and as a per-PE partial combine under
/// tree collectives (DESIGN.md §10).
struct ReduxSlot {
  std::int64_t count = 0;
  bool has_nums = false;
  ReduceOp op = ReduceOp::kSum;
  std::vector<double> nums;
  std::vector<std::vector<std::byte>> chunks;
  Callback cb;
  Time last_contribution = 0;
  /// Tree up-sweep: child partials still expected before this PE forwards
  /// its combined partial to its parent (0 outside an active wave).
  std::int32_t wave_remaining = 0;
};

using ReduxMap = std::unordered_map<std::uint64_t, ReduxSlot>;

struct PeLocal {
  /// Owning element storage.  Its iteration order (a function of the
  /// insert/erase sequence) orders broadcast delivery, LB and checkpoint
  /// sweeps, so elements enter and leave only through
  /// Collection::add_element / remove_element.
  std::unordered_map<ObjIndex, std::unique_ptr<ArrayElementBase>, ObjIndexHash> elems;
  std::unordered_map<ObjIndex, HomeRecord, ObjIndexHash> home;
  /// Hit-path location answers (DESIGN.md §15).  Built from `elems` on
  /// the PE's first location question, not at seeding, then kept complete:
  /// every element in `elems` has a record pointing at its `hosted` slot, and
  /// no other record does.  So a probe miss means "not here, location
  /// unknown" without consulting `elems`.
  LocationRecords records;
  /// The hosted elements, addressed by LocRecord::hosted (in no particular
  /// order; removal moves the last one into the hole).
  std::vector<ArrayElementBase*> hosted;
  bool records_built = false;

  /// The element a record points at, or nullptr.
  ArrayElementBase* here(const LocRecord& r) const {
    return r.hosted == LocRecord::kNotHosted ? nullptr : hosted[static_cast<std::size_t>(r.hosted)];
  }

  /// The records, built on first use (one pass over `elems`).
  LocationRecords& built_records() {
    if (!records_built) {
      records_built = true;
      for (auto& [ix, obj] : elems) host(ix, obj.get());
    }
    return records;
  }

  /// Points `ix`'s record at `e` (records built).
  void host(const ObjIndex& ix, ArrayElementBase* e) {
    LocRecord& r = records.insert(ix);
    if (r.hosted == LocRecord::kNotHosted) {
      r.hosted = static_cast<std::int32_t>(hosted.size());
      hosted.push_back(e);
    } else {
      hosted[static_cast<std::size_t>(r.hosted)] = e;
    }
  }

  /// Takes `ix`'s element out of `hosted` (records built); its record keeps
  /// the cached location.
  void unhost(const ObjIndex& ix) {
    LocRecord* r = records.find(ix);
    assert(r != nullptr && r->hosted != LocRecord::kNotHosted);
    const std::int32_t pos = r->hosted;
    r->hosted = LocRecord::kNotHosted;
    ArrayElementBase* last = hosted.back();
    hosted.pop_back();
    if (static_cast<std::size_t>(pos) != hosted.size()) {
      hosted[static_cast<std::size_t>(pos)] = last;
      records.find(last->raw_index())->hosted = pos;
    }
  }

  /// Drops every record (cached locations included); the next location
  /// question rebuilds them from `elems`.
  void forget_locations() {
    records.clear();
    hosted.clear();
    records_built = false;
  }

  /// Per-PE partial combines under tree collectives, keyed by sequence.
  ReduxMap partial;
  /// Recycled map node: the steady state extracts one partial per wave and
  /// reuses its node for the next, so tree reductions allocate nothing.
  ReduxMap::node_type partial_spare;
};

/// What one PE knows about one index, as routing reads it.
struct Location {
  ArrayElementBase* here = nullptr;  ///< the element when this PE hosts it
  int cached_pe = kInvalidPe;        ///< last location this PE was taught
};

/// A chare array or group instance.
class Collection {
 public:
  using ReduxSlot = charm::ReduxSlot;

  CollectionId id = -1;
  ChareTypeId type = -1;
  bool migratable = true;
  bool raw_move = false;   ///< move live objects without PUP (AMPI ranks)
  bool is_group = false;
  bool checkpointable = true;  ///< included in FT checkpoints (groups are not)
  bool record_comm = false;  ///< record element-to-element comm edges for LB

  /// Per-PE blocks, paged on first touch: a PE that never hosts an element,
  /// home record, or cache entry for this collection costs zero bytes
  /// (DESIGN.md §12).  An untouched block reads as empty maps — identical to
  /// what a dense table held before any message reached that PE.
  sim::PagedTable<PeLocal> pe;
  std::int64_t total_elements = 0;

  /// In-flight reductions keyed by sequence number.
  ReduxMap redux;
  /// Recycled map node (see PeLocal::partial_spare).
  ReduxMap::node_type redux_spare;
  /// Reduction number newly created elements join: dynamically inserted
  /// chares (AMR refinement) must not restart at sequence 0 while existing
  /// chares are at N, or collection-wide reductions would never complete.
  std::uint64_t redux_floor = 0;

  explicit Collection(int npes) : pe(static_cast<std::size_t>(npes)) {}

  /// Mutable access; materializes the PE's block on first touch.
  PeLocal& local(int p) { return pe.ref(static_cast<std::size_t>(p)); }

  /// Touched block or nullptr; never materializes.  Read paths (location
  /// cache probes, broadcast leg scans, LB/FT sweeps) use this so a lookup
  /// on a never-touched PE stays zero-byte.
  PeLocal* local_if(int p) { return pe.probe(static_cast<std::size_t>(p)); }
  const PeLocal* local_if(int p) const { return pe.probe(static_cast<std::size_t>(p)); }

  /// What PE p knows about `ix`: one probe of its location records.  A PE
  /// with no block knows nothing and stays untouched.
  Location locate(int p, const ObjIndex& ix) {
    PeLocal* pl = local_if(p);
    if (pl == nullptr) return {};
    const LocRecord* r = pl->built_records().find(ix);
    if (r == nullptr) return {};
    return {pl->here(*r), r->cached_pe};
  }

  ArrayElementBase* find(int p, const ObjIndex& ix) { return locate(p, ix).here; }

  /// Where PE p sends a point message for `ix` without asking the home: p
  /// itself when the element is here, else the cached location; kInvalidPe
  /// when it knows neither.  The runtime and TRAM both route through this.
  int known_location(int p, const ObjIndex& ix) {
    const Location r = locate(p, ix);
    return r.here != nullptr ? p : r.cached_pe;
  }

  /// Teaches PE p that `ix` lives on `loc` (the home's cache update).
  void learn_location(int p, const ObjIndex& ix, int loc) {
    local(p).built_records().insert(ix).cached_pe = loc;
  }

  /// Hosts `obj` as `ix`'s element on PE p, replacing any previous one.
  /// Before the PE's records are built this is the bare `elems` insert, so
  /// seeding costs nothing extra; after, it keeps the records complete.
  ArrayElementBase* add_element(int p, const ObjIndex& ix,
                                std::unique_ptr<ArrayElementBase> obj) {
    PeLocal& pl = local(p);
    ArrayElementBase* raw = obj.get();
    pl.elems[ix] = std::move(obj);
    if (pl.records_built) pl.host(ix, raw);
    return raw;
  }

  /// Removes `ix`'s element from PE p and hands it back (nullptr when PE p
  /// does not host it).  An existing record keeps its cached location.
  std::unique_ptr<ArrayElementBase> remove_element(int p, const ObjIndex& ix) {
    PeLocal* pl = local_if(p);
    if (pl == nullptr) return nullptr;
    auto it = pl->elems.find(ix);
    if (it == pl->elems.end()) return nullptr;
    std::unique_ptr<ArrayElementBase> obj = std::move(it->second);
    pl->elems.erase(it);
    if (pl->records_built) pl->unhost(ix);
    return obj;
  }

  /// Visits every element, PE by ascending PE and in `elems` order within a
  /// PE — the order of a dense 0..P-1 sweep, so folds are bit-identical —
  /// without first-touching PEs that host nothing.
  template <class F>
  void for_each_element(F&& f) {
    pe.for_each_touched([&f](std::size_t, PeLocal& pl) {
      for (auto& [ix, obj] : pl.elems) f(*obj);
    });
  }
};

}  // namespace charm
