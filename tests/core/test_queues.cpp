// Ordering invariants of the scheduler's hot-path queues, the move/destroy
// semantics of sim::UniqueFn, and the zero-allocation guarantee for the
// steady-state point-send path.
//
// The queue tests pin down the total orders the simulation's determinism
// rests on: (time, seq) for the global event list and
// (priority, arrival, seq) for the per-PE ready queue — including the FIFO
// fast path that default-priority messages take.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "runtime/charm.hpp"
#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "sim/ready_queue.hpp"
#include "sim/unique_fn.hpp"

namespace {

// ---- operator new/delete counting hook --------------------------------------
//
// Global allocation counter used by the zero-allocation test.  Counting is
// toggled around the measured region; the hooks otherwise defer to malloc.

bool g_counting = false;
std::size_t g_allocs = 0;

}  // namespace

// GCC pairs the inlined replacement operator new with the free() inside the
// replacement operator delete and flags a mismatch; the pair is consistent
// by construction (both sides are malloc/free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocs;
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using sim::Event;
using sim::EventQueue;
using sim::ReadyMsg;
using sim::ReadyQueue;
using sim::UniqueFn;

// ---- EventQueue -------------------------------------------------------------

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  const double times[] = {5.0, 1.0, 3.0, 2.0, 4.0, 0.5, 2.5};
  std::uint64_t seq = 0;
  for (double t : times)
    q.emplace(t, seq++, Event::Kind::kArrive, 0, 0, 0);
  double prev = -1;
  while (!q.empty()) {
    Event e = q.pop();
    EXPECT_GT(e.time, prev);
    prev = e.time;
  }
}

TEST(EventQueue, EqualTimesBreakTiesBySeqFifo) {
  EventQueue q;
  // All at the same virtual time, interleaved with earlier/later events.
  for (std::uint64_t s = 0; s < 64; ++s)
    q.emplace(1.0, s, Event::Kind::kArrive, 0, 0, 0);
  q.emplace(0.5, 64, Event::Kind::kArrive, 0, 0, 0);
  q.emplace(2.0, 65, Event::Kind::kArrive, 0, 0, 0);

  EXPECT_DOUBLE_EQ(q.pop().time, 0.5);
  for (std::uint64_t s = 0; s < 64; ++s) {
    Event e = q.pop();
    EXPECT_DOUBLE_EQ(e.time, 1.0);
    EXPECT_EQ(e.seq, s) << "same-time events must pop in insertion order";
  }
  EXPECT_DOUBLE_EQ(q.pop().time, 2.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedPushPopMatchesReferenceModel) {
  EventQueue q;
  std::set<std::pair<double, std::uint64_t>> reference;
  std::uint64_t seq = 0;
  // Sawtooth: bursts of pushes with partial drains in between, exercising
  // slot reuse through the free list.  Every pop must match the minimum of
  // a reference ordered set under (time, seq).
  for (int round = 0; round < 20; ++round) {
    for (int k = 0; k < 50; ++k) {
      const double t = static_cast<double>((round * 50 + k * 7) % 997);
      q.emplace(t, seq, Event::Kind::kArrive, 0, 0, 0);
      reference.emplace(t, seq);
      ++seq;
    }
    for (int k = 0; k < 30 && !q.empty(); ++k) {
      Event e = q.pop();
      ASSERT_FALSE(reference.empty());
      EXPECT_EQ(std::make_pair(e.time, e.seq), *reference.begin());
      reference.erase(reference.begin());
    }
  }
  while (!q.empty()) {
    Event e = q.pop();
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(std::make_pair(e.time, e.seq), *reference.begin());
    reference.erase(reference.begin());
  }
  EXPECT_TRUE(reference.empty());
}

TEST(EventQueue, HandlerSurvivesSiftsAndClearReleasesClosures) {
  auto counter = std::make_shared<int>(0);
  EventQueue q;
  for (int i = 0; i < 100; ++i) {
    q.emplace(static_cast<double>(100 - i), static_cast<std::uint64_t>(i),
              Event::Kind::kArrive, 0, 0, 0)
        .fn = [counter] { ++*counter; };
  }
  EXPECT_EQ(counter.use_count(), 101);
  for (int i = 0; i < 50; ++i) {
    Event e = q.pop();
    e.fn();
  }
  EXPECT_EQ(*counter, 50);
  q.clear();  // must destroy the 50 un-popped closures
  EXPECT_EQ(counter.use_count(), 1);
}

// ---- ReadyQueue -------------------------------------------------------------

TEST(ReadyQueue, FifoFastPathServesDefaultPriorityInArrivalOrder) {
  ReadyQueue q;
  for (std::uint64_t s = 0; s < 100; ++s)
    q.emplace(ReadyQueue::kFifoPriority, static_cast<double>(s), s, 0,
              UniqueFn{});
  for (std::uint64_t s = 0; s < 100; ++s) {
    ReadyMsg m = q.pop();
    EXPECT_EQ(m.seq, s);
  }
  EXPECT_TRUE(q.empty());
}

TEST(ReadyQueue, MergesFifoAndHeapUnderPriorityArrivalSeqOrder) {
  ReadyQueue q;
  // Default-priority messages arrive in (arrival, seq) order (the machine
  // guarantees this); prioritized messages arrive interleaved.
  q.emplace(0, 1.0, 10, 0, UniqueFn{});
  q.emplace(-5, 3.0, 11, 0, UniqueFn{});  // lower value = served first
  q.emplace(0, 2.0, 12, 0, UniqueFn{});
  q.emplace(7, 0.5, 13, 0, UniqueFn{});
  q.emplace(0, 2.5, 14, 0, UniqueFn{});
  q.emplace(-5, 4.0, 15, 0, UniqueFn{});

  std::vector<std::uint64_t> order;
  while (!q.empty()) order.push_back(q.pop().seq);
  // (priority, arrival, seq): -5s first by arrival, then priority-0 FIFO,
  // then priority 7.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{11, 15, 10, 12, 14, 13}));
}

TEST(ReadyQueue, SamePriorityHeapBreaksTiesByArrivalThenSeq) {
  ReadyQueue q;
  q.emplace(3, 2.0, 21, 0, UniqueFn{});
  q.emplace(3, 1.0, 22, 0, UniqueFn{});
  q.emplace(3, 1.0, 20, 0, UniqueFn{});
  q.emplace(3, 1.0, 25, 0, UniqueFn{});
  std::vector<std::uint64_t> order;
  while (!q.empty()) order.push_back(q.pop().seq);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{20, 22, 25, 21}));
}

TEST(ReadyQueue, RingGrowthPreservesOrder) {
  ReadyQueue q;
  std::uint64_t s = 0;
  std::vector<std::uint64_t> expected;
  // Force several ring doublings with interleaved partial drains so the ring
  // wraps around while growing.
  for (int round = 0; round < 6; ++round) {
    for (int k = 0; k < (1 << round); ++k) {
      q.emplace(0, static_cast<double>(s), s, 0, UniqueFn{});
      expected.push_back(s);
      ++s;
    }
    for (int k = 0; k < (1 << round) / 2; ++k) q.pop();
    expected.erase(expected.begin(), expected.begin() + (1 << round) / 2);
  }
  std::vector<std::uint64_t> rest;
  while (!q.empty()) rest.push_back(q.pop().seq);
  EXPECT_EQ(rest, expected);
}

// ---- UniqueFn ---------------------------------------------------------------

struct LifeCounter {
  int* constructions;
  int* destructions;
  explicit LifeCounter(int* c, int* d) : constructions(c), destructions(d) {
    ++*constructions;
  }
  LifeCounter(const LifeCounter& o)
      : constructions(o.constructions), destructions(o.destructions) {
    ++*constructions;
  }
  LifeCounter(LifeCounter&& o) noexcept
      : constructions(o.constructions), destructions(o.destructions) {
    ++*constructions;
  }
  ~LifeCounter() { ++*destructions; }
  void operator()() const {}
};

TEST(UniqueFn, DestroysHeldClosureExactlyOnce) {
  int ctor = 0, dtor = 0;
  {
    UniqueFn f(LifeCounter(&ctor, &dtor));
    f();
  }
  EXPECT_EQ(ctor, dtor) << "every constructed closure must be destroyed";
  EXPECT_GE(ctor, 1);
}

TEST(UniqueFn, MoveTransfersOwnershipNoDoubleDestroy) {
  int ctor = 0, dtor = 0;
  {
    UniqueFn a(LifeCounter(&ctor, &dtor));
    UniqueFn b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    UniqueFn c;
    c = std::move(b);
    EXPECT_TRUE(static_cast<bool>(c));
    c();
  }
  EXPECT_EQ(ctor, dtor);
}

TEST(UniqueFn, SmallClosuresAreInlineLargeAreBoxed) {
  int x = 0;
  UniqueFn small([&x] { ++x; });
  EXPECT_TRUE(small.is_inline());

  struct Big {
    char pad[128];
    int* p;
    void operator()() { ++*p; }
  };
  Big big{};
  big.p = &x;
  UniqueFn boxed(big);
  EXPECT_FALSE(boxed.is_inline());
  small();
  boxed();
  EXPECT_EQ(x, 2);

  // Boxed closures move by pointer swap: still valid after several moves.
  UniqueFn moved = std::move(boxed);
  UniqueFn moved2 = std::move(moved);
  moved2();
  EXPECT_EQ(x, 3);
}

TEST(UniqueFn, EmptyInvokeThrows) {
  UniqueFn f;
  EXPECT_THROW(f(), std::bad_function_call);
}

TEST(UniqueFn, QuarantineDisposalRunsHandlerWithoutDoubleFree) {
  // A message in flight to a failed PE is executed in quarantine (dispose
  // path) — the closure must run once and be destroyed once.
  sim::Machine m(sim::MachineConfig{4, {}, 4});
  int ctor = 0, dtor = 0, runs = 0;
  struct Probe {
    int* ctor;
    int* dtor;
    int* runs;
    Probe(int* c, int* d, int* r) : ctor(c), dtor(d), runs(r) { ++*ctor; }
    Probe(const Probe& o) : ctor(o.ctor), dtor(o.dtor), runs(o.runs) { ++*ctor; }
    Probe(Probe&& o) noexcept : ctor(o.ctor), dtor(o.dtor), runs(o.runs) {
      ++*ctor;
    }
    ~Probe() { ++*dtor; }
    void operator()() { ++*runs; }
  };
  m.post(2, 0.0, Probe(&ctor, &dtor, &runs));
  m.fail_pe(2);
  m.run();
  EXPECT_EQ(runs, 1) << "quarantined handler still runs for accounting";
  EXPECT_EQ(ctor, dtor);
}

// ---- zero-allocation steady state -------------------------------------------

struct PingMsg {
  int v = 0;
  template <class P>
  void pup(P& p) {
    p | v;
  }
};

class PingSink : public charm::ArrayElement<PingSink, std::int32_t> {
 public:
  int n = 0;
  void take(const PingMsg&) { ++n; }
};

/// ~1 KiB flat message: the largest payload the same-PE zero-allocation
/// guarantee covers.
struct BulkMsg {
  std::array<double, 120> data{};
  template <class P>
  void pup(P& p) {
    p | data;
  }
};

class BulkSink : public charm::ArrayElement<BulkSink, std::int32_t> {
 public:
  int n = 0;
  double sum = 0;
  void take(const BulkMsg& m) {
    ++n;
    sum += m.data[0];
  }
};

TEST(ZeroAlloc, SteadyStatePointSendDeliverDoesNotAllocate) {
  sim::Machine m(sim::MachineConfig{8, {}, 4});
  charm::Runtime rt(m);
  auto arr = charm::ArrayProxy<PingSink>::create(rt);
  for (int i = 0; i < 32; ++i) arr.seed(i, i % 8);

  // Every PE sends, so every PE's location records sit on the measured path
  // (local hits, remote routes, and receiver-side probes alike).  The burst
  // stays at 2000 messages in flight: the closure block cache retains 4096
  // blocks per size class, and a larger burst would outgrow it.
  auto drive = [&](int rounds) {
    for (int pe = 0; pe < 8; ++pe) {
      rt.on_pe(pe, [&arr, rounds, pe] {
        for (int i = 0; i < rounds; ++i)
          arr[(i + pe) % 32].send<&PingSink::take>(PingMsg{i});
      });
    }
    m.run();
  };

  // Warm-up: populates the payload pool, the closure block cache, the event
  // arena, the ready rings, and every PE's location records.
  drive(250);

  // Steady state: every send→deliver must recycle pooled resources.
  g_allocs = 0;
  g_counting = true;
  drive(250);
  g_counting = false;
  EXPECT_EQ(g_allocs, 0u)
      << "steady-state point send→deliver must be allocation-free";

  const charm::PayloadPool& pool = rt.payload_pool();
  EXPECT_GT(pool.hits(), 0u);
}

// POD reductions recycle everything in steady state: contribution values land
// in pooled NumsPool buffers, combine happens in place, map nodes cycle
// through per-collection spares, and the result buffer returns to the pool
// after the callback runs.  Rounds are driven sequentially (the completion
// callback launches the next round) so exactly one reduction is in flight.
class RoundContributor : public charm::ArrayElement<RoundContributor, std::int32_t> {
 public:
  void poke(charm::ReduceOp op) {
    contribute(static_cast<double>(index()), op, cb);
  }
  static charm::Callback cb;
};

charm::Callback RoundContributor::cb;

/// Sequential round driver: the completion callback launches the next round,
/// so exactly one reduction is in flight and every pooled resource cycles.
/// The callback is built once, outside the counted region; `drive` resets the
/// round counter and re-launches without allocating.
struct ReductionDriver {
  charm::Runtime& rt;
  std::vector<std::vector<RoundContributor*>>& by_pe;
  int round = 0;
  int target = 0;
  int mismatches = 0;  ///< rounds whose result was wrong (checked in-callback)
  double expect_sum = 0, expect_min = 0, expect_max = 0;

  void launch() {
    const charm::ReduceOp op = round % 3 == 0   ? charm::ReduceOp::kSum
                               : round % 3 == 1 ? charm::ReduceOp::kMin
                                                : charm::ReduceOp::kMax;
    for (int pe = 0; pe < static_cast<int>(by_pe.size()); ++pe) {
      rt.on_pe(pe, [this, pe, op] {
        for (RoundContributor* e : by_pe[static_cast<std::size_t>(pe)]) e->poke(op);
      });
    }
  }

  void install_callback() {
    RoundContributor::cb =
        charm::Callback::to_function([this](charm::ReductionResult&& r) {
          const double want = round % 3 == 0   ? expect_sum
                              : round % 3 == 1 ? expect_min
                                               : expect_max;
          if (r.num(0) != want) ++mismatches;
          if (++round < target) launch();
        });
  }

  /// Runs `rounds` rounds; returns the number of wrong results (0 = all ok).
  int drive(sim::Machine& m, int rounds) {
    round = 0;
    target = rounds;
    mismatches = 0;
    launch();
    m.run();
    return mismatches;
  }
};

std::vector<std::vector<RoundContributor*>> elements_by_pe(
    charm::Runtime& rt, charm::ArrayProxy<RoundContributor>& arr, int nelems) {
  std::vector<std::vector<RoundContributor*>> by_pe(
      static_cast<std::size_t>(rt.npes()));
  for (int i = 0; i < nelems; ++i) {
    for (int pe = 0; pe < rt.npes(); ++pe) {
      auto* e = rt.collection(arr.id())
                    .find(pe, charm::IndexTraits<std::int32_t>::encode(i));
      if (e != nullptr)
        by_pe[static_cast<std::size_t>(pe)].push_back(
            static_cast<RoundContributor*>(e));
    }
  }
  return by_pe;
}

TEST(ZeroAlloc, SteadyStateScalarReductionDoesNotAllocate) {
  sim::Machine m(sim::MachineConfig{8, {}, 4});
  charm::Runtime rt(m);
  auto arr = charm::ArrayProxy<RoundContributor>::create(rt);
  for (int i = 0; i < 32; ++i) arr.seed(i, i % 8);
  auto by_pe = elements_by_pe(rt, arr, 32);
  ReductionDriver d{rt, by_pe};
  d.expect_sum = 31.0 * 32 / 2;
  d.expect_min = 0.0;
  d.expect_max = 31.0;
  d.install_callback();

  // Warm-up: populates the nums pool, the redux map-node spares, the event
  // arena, and the closure block cache.
  EXPECT_EQ(d.drive(m, 50), 0);

  m.resume();
  g_allocs = 0;
  g_counting = true;
  const int bad = d.drive(m, 500);
  g_counting = false;
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(g_allocs, 0u)
      << "steady-state POD reductions must be allocation-free";

  const charm::NumsPool& pool = rt.nums_pool();
  EXPECT_GT(pool.hits(), 0u) << "contribution buffers must come from the pool";
  EXPECT_GT(pool.free_buffers(), 0u)
      << "result buffers must return to the pool after the callback";
}

TEST(ZeroAlloc, SteadyStateTreeReductionDoesNotAllocate) {
  // Same gate on the distributed spanning-tree path: partial-combine slots,
  // up-sweep kick closures, and partial messages must all recycle.
  charm::RuntimeConfig cfg;
  cfg.collectives = charm::CollectiveTopology::kTree;
  cfg.tree_fanout = 2;
  sim::Machine m(sim::MachineConfig{8, {}, 4});
  charm::Runtime rt(m, cfg);
  auto arr = charm::ArrayProxy<RoundContributor>::create(rt);
  for (int i = 0; i < 32; ++i) arr.seed(i, i % 8);
  auto by_pe = elements_by_pe(rt, arr, 32);
  ReductionDriver d{rt, by_pe};
  d.expect_sum = 31.0 * 32 / 2;
  d.expect_min = 0.0;
  d.expect_max = 31.0;
  d.install_callback();

  EXPECT_EQ(d.drive(m, 50), 0);
  const std::uint64_t partials_before = rt.reduction_partials_sent();

  m.resume();
  g_allocs = 0;
  g_counting = true;
  const int bad = d.drive(m, 200);
  g_counting = false;
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(g_allocs, 0u)
      << "steady-state tree reductions must be allocation-free";
  EXPECT_EQ(rt.reduction_partials_sent() - partials_before, 200u * 7u)
      << "every round routes one partial per non-root PE";

  const charm::NumsPool& pool = rt.nums_pool();
  EXPECT_GT(pool.hits(), 0u);
  EXPECT_GT(pool.free_buffers(), 0u);
}

TEST(ZeroAlloc, SteadyStateSamePeTypedSendDoesNotAllocate) {
  // Same-PE sends take the typed fast path: the argument moves through an
  // in-flight slot embedded in the delivery closure — no pack, no unpack,
  // and (after warm-up) no heap traffic even for ~1 KiB payloads, which
  // land in the closure block cache's largest size class.
  sim::Machine m(sim::MachineConfig{4, {}, 4});
  charm::Runtime rt(m);
  auto small = charm::ArrayProxy<PingSink>::create(rt);
  auto bulk = charm::ArrayProxy<BulkSink>::create(rt);
  for (int i = 0; i < 16; ++i) small.seed(i, 0);
  for (int i = 0; i < 16; ++i) bulk.seed(i, 0);

  auto drive = [&](int rounds) {
    rt.on_pe(0, [&, rounds] {
      for (int i = 0; i < rounds; ++i) {
        small[i % 16].send<&PingSink::take>(PingMsg{i});
        BulkMsg big;
        big.data[0] = static_cast<double>(i);
        bulk[i % 16].send<&BulkSink::take>(std::move(big));
      }
    });
    m.run();
  };

  drive(2000);  // warm the closure block cache and event arena

  g_allocs = 0;
  g_counting = true;
  drive(2000);
  g_counting = false;
  EXPECT_EQ(g_allocs, 0u)
      << "steady-state same-PE typed send→deliver must be allocation-free";

  // The typed path never touches the payload pool: nothing was packed.
  const charm::PayloadPool& pool = rt.payload_pool();
  EXPECT_EQ(pool.hits() + pool.misses(), 0u);
}

}  // namespace
