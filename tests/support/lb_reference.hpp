#pragma once
// From-scratch LB reference (DESIGN.md §13): the pre-database algorithms,
// kept verbatim as the bit-identity oracle the production strategies in
// src/lb are fuzzed against.  Nothing here reads a StatsAux block; every
// answer is recomputed from the chare list alone.
//
//  - build_aux:      the StatsAux a load-database snapshot must carry, folded
//                    in the same orders the database uses;
//  - rebuild_stats:  the old collect (walk every registered element, sort);
//  - greedy/refine:  the old GreedyLB/RefineLB rounds, shrink clamping
//                    included.  HybridLB's only index read is the work order,
//                    which build_aux derives by the old sort, so the
//                    production HybridLB over a build_aux Stats is its
//                    reference.

#include <vector>

#include "lb/strategy.hpp"

namespace charm {
class Runtime;
}

namespace charm::lb::reference {

/// Every StatsAux field recomputed from `s.chares` and `s.pe_speed`.
StatsAux build_aux(const Stats& s);

/// `s` with its aux block replaced by build_aux(s): hand-built Stats become
/// valid strategy input.
Stats with_aux(Stats s);

/// The pre-database gather: every element of every LB-registered collection,
/// sorted into canonical (collection, index) order, with build_aux attached.
Stats rebuild_stats(Runtime& rt, int target_pes);

/// The pre-database GreedyLB round.
std::vector<Migration> greedy(const Stats& s);

/// The pre-database RefineLB round; chares hosted at or beyond `s.npes`
/// count against PE npes-1 (the `min(pe, npes-1)` clamp).
std::vector<Migration> refine(const Stats& s, double tolerance);

}  // namespace charm::lb::reference
