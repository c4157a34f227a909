// TRAM aggregation/routing tests and malleable shrink/expand tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "malleability/malleability.hpp"
#include "runtime/charm.hpp"
#include "tram/tram.hpp"

#include "test_util.hpp"

namespace {

using namespace charm;

struct ItemMsg {
  int v = 0;
  void pup(pup::Er& p) { p | v; }
};

class Sink : public charm::ArrayElement<Sink, std::int32_t> {
 public:
  std::vector<int> got;
  void take(const ItemMsg& m) {
    got.push_back(m.v);
    charm::charge(0.1e-6);
  }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | got;
  }
};

using charmtest::Harness;

Sink* find_sink(Runtime& rt, CollectionId col, std::int32_t ix) {
  for (int pe = 0; pe < rt.npes(); ++pe) {
    auto* f = rt.collection(col).find(pe, IndexTraits<std::int32_t>::encode(ix));
    if (f) return static_cast<Sink*>(f);
  }
  return nullptr;
}

TEST(Tram, AllItemsDeliveredExactlyOnce) {
  Harness h(27);  // 3x3x3 torus: multi-hop routing exercised
  auto arr = ArrayProxy<Sink>::create(h.rt);
  const int nelems = 54;
  for (int i = 0; i < nelems; ++i) arr.seed(i, i % 27);
  tram::Stream<&Sink::take> stream(h.rt, arr, {.buffer_items = 8, .item_overhead = 8});

  const int per_sender = 40;
  bool flushed = false;
  h.rt.on_pe(0, [&] {
    sim::Rng rng(5);
    for (int k = 0; k < per_sender; ++k) {
      stream.send(static_cast<std::int32_t>(rng.next_below(nelems)), ItemMsg{k});
    }
    stream.flush_all();
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      flushed = true;
    }));
  });
  h.machine.run();
  ASSERT_TRUE(flushed);

  int total = 0;
  for (int i = 0; i < nelems; ++i) total += static_cast<int>(find_sink(h.rt, arr.id(), i)->got.size());
  EXPECT_EQ(total, per_sender);
  EXPECT_EQ(stream.core().items_inserted(), static_cast<std::uint64_t>(per_sender));
}

TEST(Tram, AggregatesFineGrainedTraffic) {
  Harness h(16);
  auto arr = ArrayProxy<Sink>::create(h.rt);
  for (int i = 0; i < 16; ++i) arr.seed(i, i);
  tram::Stream<&Sink::take> stream(h.rt, arr, {.buffer_items = 32, .item_overhead = 8});
  h.rt.on_pe(0, [&] {
    for (int k = 0; k < 960; ++k) stream.send(static_cast<std::int32_t>(k % 15 + 1), ItemMsg{k});
    stream.flush_all();
  });
  h.machine.run();
  EXPECT_GT(stream.core().aggregation(), 8.0)
      << "TRAM should pack many items per network message";
}

TEST(Tram, BatchAndControlCountersAccountForWireTraffic) {
  Harness h(8);
  auto arr = ArrayProxy<Sink>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i);
  tram::Stream<&Sink::take> stream(h.rt, arr, {.buffer_items = 16, .item_overhead = 8});
  h.rt.on_pe(0, [&] {
    for (int k = 0; k < 320; ++k) stream.send(static_cast<std::int32_t>(k % 7 + 1), ItemMsg{k});
    stream.flush_all();
  });
  h.machine.run();
  const tram::Core& core = stream.core();
  // Every item went somewhere, so batches carry payload plus the modeled
  // per-item overhead; flush_all posts one 16-byte control message per PE.
  EXPECT_EQ(core.items_inserted(), 320u);
  EXPECT_GT(core.batch_bytes(), 320u * 8u)
      << "batch bytes must include per-item overhead on top of payload";
  EXPECT_EQ(core.control_messages(), 8u);
  EXPECT_EQ(core.control_bytes(), 8u * 16u);
  // Elements sit on PE i, homes are hashed: some items reach a home that
  // does not host their element, and the home teaches PE 0 with an update
  // frame.  An item frame (4-byte int) and an update frame (4-byte owner)
  // both cost 4 + 8 bytes per hop; aggregation() counts item hops only, so
  // the remaining bytes are update hops: at least one per update, at most
  // one per torus dimension.
  const std::uint64_t updates = core.location_updates();
  EXPECT_GT(updates, 0u);
  const auto item_hops =
      static_cast<std::uint64_t>(std::llround(core.aggregation() * core.batches_sent()));
  ASSERT_GE(core.batch_bytes(), 12u * item_hops);
  const std::uint64_t update_bytes = core.batch_bytes() - 12u * item_hops;
  EXPECT_EQ(update_bytes % 12u, 0u);
  EXPECT_GE(update_bytes / 12u, updates);
  EXPECT_LE(update_bytes / 12u, 3u * updates);
}

TEST(Tram, FewerMessagesThanDirectSends) {
  // The headline TRAM effect: message count collapses by the aggregation factor.
  const int items = 2000;
  std::uint64_t direct_msgs, tram_msgs;
  {
    Harness h(16);
    auto arr = ArrayProxy<Sink>::create(h.rt);
    for (int i = 0; i < 16; ++i) arr.seed(i, i);
    const std::uint64_t before = h.rt.messages_sent();
    h.rt.on_pe(0, [&] {
      sim::Rng rng(3);
      for (int k = 0; k < items; ++k)
        arr[static_cast<std::int32_t>(rng.next_below(16))].send<&Sink::take>(ItemMsg{k});
    });
    h.machine.run();
    direct_msgs = h.rt.messages_sent() - before;
  }
  {
    Harness h(16);
    auto arr = ArrayProxy<Sink>::create(h.rt);
    for (int i = 0; i < 16; ++i) arr.seed(i, i);
    tram::Stream<&Sink::take> stream(h.rt, arr, {.buffer_items = 64, .item_overhead = 8});
    const std::uint64_t before = h.rt.messages_sent();
    h.rt.on_pe(0, [&] {
      sim::Rng rng(3);
      for (int k = 0; k < items; ++k)
        stream.send(static_cast<std::int32_t>(rng.next_below(16)), ItemMsg{k});
      stream.flush_all();
    });
    h.machine.run();
    tram_msgs = h.rt.messages_sent() - before;
  }
  EXPECT_LT(tram_msgs * 4, direct_msgs);
}

TEST(Tram, RoutesToMigratedElements) {
  Harness h(8);
  auto arr = ArrayProxy<Sink>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i);
  tram::Stream<&Sink::take> stream(h.rt, arr, {.buffer_items = 4, .item_overhead = 8});
  h.rt.on_pe(5, [&] {
    // Move element 5 away from where everyone thinks it is, then stream to it.
    h.rt.migrate(arr.id(), IndexTraits<std::int32_t>::encode(5), 2);
  });
  h.machine.run();
  h.machine.resume();
  h.rt.on_pe(0, [&] {
    for (int k = 0; k < 6; ++k) stream.send(5, ItemMsg{k});
    stream.flush_all();
  });
  h.machine.run();
  EXPECT_EQ(find_sink(h.rt, arr.id(), 5)->got.size(), 6u);
}

/// TRAM batches an item takes from src to dst: one per dimension-ordered
/// routing step.
int route_len(const sim::Torus3D& topo, int src, int dst) {
  int n = 0;
  for (int at = src; at != dst; at = topo.next_on_route(at, dst)) ++n;
  return n;
}

TEST(Tram, LearnsOwnerAfterFirstMiss) {
  Harness h(16);
  auto arr = ArrayProxy<Sink>::create(h.rt);
  const int nelems = 64;
  // Block placement (as PHOLD and taskbench place elements): the hashed home
  // of most elements is not their owner.
  std::vector<int> owner(nelems);
  for (int i = 0; i < nelems; ++i) {
    owner[i] = i * 16 / nelems;
    arr.seed(i, owner[i]);
  }
  tram::Stream<&Sink::take> stream(h.rt, arr, {.buffer_items = 8, .item_overhead = 8});
  const tram::Core& core = stream.core();

  // Items from PE 0 miss exactly when both the home and the owner are other
  // PEs; each such home teaches PE 0 once.
  std::uint64_t expect_misses = 0;
  for (int i = 0; i < nelems; ++i) {
    const int home = h.rt.home_pe(IndexTraits<std::int32_t>::encode(i));
    if (home != owner[i] && home != 0 && owner[i] != 0) ++expect_misses;
  }
  ASSERT_GT(expect_misses, 0u) << "placement must put some elements off their home";

  bool quiet = false;
  h.rt.on_pe(0, [&] {
    for (int i = 0; i < nelems; ++i) stream.send(static_cast<std::int32_t>(i), ItemMsg{i});
    stream.flush_all();
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) { quiet = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(quiet);
  EXPECT_EQ(core.misdelivered(), expect_misses);
  EXPECT_EQ(core.location_updates(), expect_misses);

  // Round 2, one item at a time: no misdelivery, and each item takes exactly
  // its direct route's batches (never more than its torus hop count).
  const sim::Torus3D& topo = h.machine.topology();
  for (int i = 0; i < nelems; ++i) {
    const std::uint64_t batches = core.batches_sent();
    h.machine.resume();
    h.rt.on_pe(0, [&] {
      stream.send(static_cast<std::int32_t>(i), ItemMsg{nelems + i});
      stream.flush_all();
    });
    h.machine.run();
    const std::uint64_t took = core.batches_sent() - batches;
    EXPECT_EQ(took, static_cast<std::uint64_t>(route_len(topo, 0, owner[i]))) << "element " << i;
    EXPECT_LE(took, static_cast<std::uint64_t>(topo.hops(0, owner[i]))) << "element " << i;
  }
  EXPECT_EQ(core.misdelivered(), expect_misses) << "round 2 must not misdeliver";
  EXPECT_EQ(core.location_updates(), expect_misses);
  for (int i = 0; i < nelems; ++i)
    EXPECT_EQ(find_sink(h.rt, arr.id(), i)->got, (std::vector<int>{i, nelems + i}));
}

TEST(Tram, StaleLearnedLocationsNeverBounceBetweenSenders) {
  // Two senders are taught where one element lives at different times, and
  // the element moves between them: X learns E -> Y; E moves Y -> X; Y learns
  // E -> X; E moves X -> Z.  X's record now names Y and Y's names X.  A miss
  // off the home must go to the home (which knows Z), not follow the missing
  // PE's own stale record back to the other sender.
  Harness h(8);
  auto arr = ArrayProxy<Sink>::create(h.rt);
  const ObjIndex e = IndexTraits<std::int32_t>::encode(0);
  const int home = h.rt.home_pe(e);
  std::vector<int> others;
  for (int pe = 0; pe < 8; ++pe)
    if (pe != home) others.push_back(pe);
  const int x = others[0], y = others[1], z = others[2];
  arr.seed(0, y);
  tram::Stream<&Sink::take> stream(h.rt, arr, {.buffer_items = 4, .item_overhead = 8});
  Collection& c = h.rt.collection(arr.id());

  int next = 0;
  auto send_and_flush = [&](std::vector<int> senders, int per_sender) {
    h.machine.resume();
    for (int s : senders)
      h.rt.on_pe(s, [&] {
        for (int k = 0; k < per_sender; ++k) stream.send(0, ItemMsg{next++});
      });
    h.rt.on_pe(0, [&] { stream.flush_all(); });
    h.machine.run();
  };
  auto move_to = [&](int from, int to) {
    h.machine.resume();
    h.rt.on_pe(from, [&, to] { h.rt.migrate(arr.id(), e, to); });
    h.machine.run();
    ASSERT_NE(c.find(to, e), nullptr);
  };

  send_and_flush({x}, 1);
  ASSERT_EQ(c.known_location(x, e), y);
  move_to(y, x);
  send_and_flush({y}, 1);
  ASSERT_EQ(c.known_location(y, e), x);
  move_to(x, z);
  ASSERT_EQ(c.known_location(x, e), y);
  ASSERT_EQ(c.known_location(y, e), x);

  // Both stale senders stream; step a bounded number of events so an item
  // bouncing between X and Y fails the test instead of hanging it.
  h.machine.resume();
  bool quiet = false;
  for (int s : {x, y})
    h.rt.on_pe(s, [&] {
      for (int k = 0; k < 10; ++k) stream.send(0, ItemMsg{next++});
    });
  h.rt.on_pe(0, [&] {
    stream.flush_all();
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) { quiet = true; }));
  });
  for (int n = 0; n < 100000 && h.machine.step(); ++n) {
  }
  ASSERT_EQ(h.machine.pending_events(), 0u) << "items still circulating";
  EXPECT_TRUE(quiet);
  std::vector<int> got = static_cast<Sink*>(c.find(z, e))->got;
  std::sort(got.begin(), got.end());
  std::vector<int> expect(next);
  for (int v = 0; v < next; ++v) expect[v] = v;
  EXPECT_EQ(got, expect) << "every item exactly once";
  EXPECT_EQ(c.known_location(x, e), z) << "the home re-taught X";
  EXPECT_EQ(c.known_location(y, e), z) << "the home re-taught Y";
}

// ---- malleability ------------------------------------------------------------

struct StepMsg {
  int remaining = 0;
  void pup(pup::Er& p) { p | remaining; }
};

class Mol : public charm::ArrayElement<Mol, std::int32_t> {
 public:
  int pending = 0;
  int iters = 0;
  void step(const StepMsg& m) {
    pending = m.remaining;
    ++iters;
    charm::charge(1e-3);
    at_sync();
  }
  void resume_from_sync() override {
    if (pending > 0) {
      charm::ArrayProxy<Mol> self(collection_id());
      self[index()].send<&Mol::step>(StepMsg{pending - 1});
    }
  }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | pending;
    p | iters;
  }
};

/// A TRAM sink that can join the load-balancing barrier (so a shrink can
/// evacuate it).
class SyncSink : public charm::ArrayElement<SyncSink, std::int32_t> {
 public:
  std::vector<int> got;
  void take(const ItemMsg& m) { got.push_back(m.v); }
  void sync(const StepMsg&) { at_sync(); }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | got;
  }
};

TEST(Tram, LearnedLocationsSurviveMigrationAndShrink) {
  sim::Machine machine(sim::MachineConfig{8, {}, 4});
  Runtime rt(machine);
  auto arr = ArrayProxy<SyncSink>::create(rt);
  const int nelems = 32;
  for (int i = 0; i < nelems; ++i) arr.seed(i, i * 8 / nelems);
  rt.lb().register_collection(arr.id());
  tram::Stream<&SyncSink::take> stream(rt, arr, {.buffer_items = 4, .item_overhead = 8});
  const CollectionId col = arr.id();
  auto elem_pe = [&](int i) {
    for (int pe = 0; pe < rt.npes(); ++pe)
      if (rt.collection(col).find(pe, IndexTraits<std::int32_t>::encode(i))) return pe;
    return kInvalidPe;
  };

  // Each round, two senders stream one item to every element; item values
  // are unique, so "delivered exactly once" is an exact per-element list.
  std::vector<std::vector<int>> expect(nelems);
  int round = 0;
  auto send_from = [&](int s) {
    for (int i = 0; i < nelems; ++i) expect[i].push_back(round * 1000 + s * 100 + i);
    rt.on_pe(s, [&, s] {
      for (int i = 0; i < nelems; ++i)
        stream.send(static_cast<std::int32_t>(i), ItemMsg{round * 1000 + s * 100 + i});
    });
  };
  auto stream_round = [&](int sender_a, int sender_b) {
    ++round;
    bool quiet = false;
    machine.resume();
    send_from(sender_a);
    send_from(sender_b);
    rt.on_pe(0, [&] {
      rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
        stream.flush_all();
        rt.start_quiescence(Callback::to_function([&](ReductionResult&&) { quiet = true; }));
      }));
    });
    machine.run();
    ASSERT_TRUE(quiet) << "round " << round;
    for (int i = 0; i < nelems; ++i) {
      std::vector<int> got = static_cast<SyncSink*>(rt.collection(col).find(
                                 elem_pe(i), IndexTraits<std::int32_t>::encode(i)))
                                 ->got;
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expect[i]) << "element " << i << " after round " << round;
    }
  };
  auto records_point_below = [&](int limit) {
    int bad = 0;
    for (int pe = 0; pe < rt.npes(); ++pe) {
      const PeLocal* pl = rt.collection(col).local_if(pe);
      if (pl == nullptr) continue;
      pl->records.for_each([&](const ObjIndex&, const LocRecord& r) {
        if (r.cached_pe != kInvalidPe && r.cached_pe >= limit) ++bad;
      });
    }
    return bad;
  };

  stream_round(0, 5);
  ASSERT_GT(stream.core().location_updates(), 0u) << "round 1 must teach the senders";

  // Move every third element two PEs up: the senders' learned locations go
  // stale, and their next items must still arrive exactly once.
  machine.resume();
  for (int i = 0; i < nelems; i += 3) {
    const int from = elem_pe(i);
    rt.on_pe(from, [&rt, col, i, from] {
      rt.migrate(col, IndexTraits<std::int32_t>::encode(i), (from + 2) % 8);
    });
  }
  machine.run();
  const std::uint64_t missed = stream.core().misdelivered();
  stream_round(0, 5);
  EXPECT_GT(stream.core().misdelivered(), missed) << "stale learned locations were exercised";
  stream_round(0, 5);  // relearned: still exactly once

  // A sender that has not learned streams without a flush: items that reach
  // their homes leave location updates (which never flush a buffer) and
  // items parked in buffers across the shrink below.
  const std::uint64_t taught = stream.core().location_updates();
  ++round;
  machine.resume();
  send_from(2);
  machine.run();
  ASSERT_GT(stream.core().location_updates(), taught);

  // Shrink to 4 PEs at the next load-balancing barrier.
  ccs::Server server(rt, {.shrink_base_s = 0.05, .expand_base_s = 0.1, .per_pe_s = 0});
  bool shrunk = false;
  machine.resume();
  rt.on_pe(0, [&] {
    server.request_shrink(4, Callback::to_function([&](ReductionResult&&) { shrunk = true; }));
    arr.broadcast<&SyncSink::sync>(StepMsg{});
  });
  machine.run();
  ASSERT_TRUE(shrunk);
  ASSERT_EQ(rt.active_pes(), 4);
  for (int i = 0; i < nelems; ++i) EXPECT_LT(elem_pe(i), 4) << "element " << i;
  EXPECT_EQ(records_point_below(4), 0) << "a location record names a removed PE";

  // The first flush delivers the parked items and updates: each item still
  // arrives exactly once, and an update naming a retired PE is not learned.
  const std::uint64_t updates = stream.core().location_updates();
  stream_round(0, 3);
  stream_round(1, 2);
  EXPECT_GT(stream.core().location_updates(), updates) << "senders relearn after the shrink";
  EXPECT_EQ(records_point_below(4), 0) << "a location record names a removed PE";
}

TEST(Malleability, ShrinkEvacuatesRemovedPes) {
  sim::Machine machine(sim::MachineConfig{8, {}, 4});
  Runtime rt(machine);
  auto arr = ArrayProxy<Mol>::create(rt);
  for (int i = 0; i < 32; ++i) arr.seed(i, i % 8);
  rt.lb().register_collection(arr.id());
  ccs::Server server(rt, {.shrink_base_s = 0.1, .expand_base_s = 0.2, .per_pe_s = 0});
  bool shrunk = false;
  rt.on_pe(0, [&] {
    server.request_shrink(4, Callback::to_function([&](ReductionResult&&) {
      shrunk = true;
    }));
    arr.broadcast<&Mol::step>(StepMsg{6});
  });
  machine.run();
  ASSERT_TRUE(shrunk);
  EXPECT_EQ(rt.active_pes(), 4);
  for (int pe = 4; pe < 8; ++pe)
    EXPECT_TRUE(rt.collection(arr.id()).local(pe).elems.empty())
        << "PE " << pe << " must be evacuated";
  int total = 0;
  for (int pe = 0; pe < 4; ++pe)
    total += static_cast<int>(rt.collection(arr.id()).local(pe).elems.size());
  EXPECT_EQ(total, 32);
}

TEST(Malleability, ShrinkThenExpandRestoresThroughput) {
  sim::Machine machine(sim::MachineConfig{8, {}, 4});
  Runtime rt(machine);
  auto arr = ArrayProxy<Mol>::create(rt);
  for (int i = 0; i < 32; ++i) arr.seed(i, i % 8);
  rt.lb().register_collection(arr.id());
  ccs::Server server(rt, {.shrink_base_s = 0.05, .expand_base_s = 0.1, .per_pe_s = 0});

  std::vector<double> round_times;
  double last = 0;
  // Observe per-round completion times via the LB history afterwards; here we
  // just drive: 4 rounds at 8 PEs, shrink, 4 rounds at 4, expand, 4 more.
  rt.on_pe(0, [&] {
    last = charm::now();
    arr.broadcast<&Mol::step>(StepMsg{3});
  });
  machine.run();
  machine.resume();
  bool shrunk = false;
  rt.on_pe(0, [&] {
    server.request_shrink(4, Callback::to_function([&](ReductionResult&&) { shrunk = true; }));
    arr.broadcast<&Mol::step>(StepMsg{3});
  });
  machine.run();
  ASSERT_TRUE(shrunk);
  machine.resume();
  bool expanded = false;
  rt.on_pe(0, [&] {
    server.request_expand(8, Callback::to_function([&](ReductionResult&&) { expanded = true; }));
    arr.broadcast<&Mol::step>(StepMsg{3});
  });
  machine.run();
  ASSERT_TRUE(expanded);
  EXPECT_EQ(rt.active_pes(), 8);
  // After expansion, work spreads back over all 8 PEs.
  int occupied = 0;
  for (int pe = 0; pe < 8; ++pe)
    occupied += rt.collection(arr.id()).local(pe).elems.empty() ? 0 : 1;
  EXPECT_GE(occupied, 7);
  (void)round_times;
  (void)last;
}

TEST(Malleability, InvalidTargetsRejected) {
  sim::Machine machine(sim::MachineConfig{4, {}, 4});
  Runtime rt(machine);
  ccs::Server server(rt);
  EXPECT_THROW(server.request_shrink(0, Callback::ignore()), std::invalid_argument);
  EXPECT_THROW(server.request_shrink(8, Callback::ignore()), std::invalid_argument);
  EXPECT_THROW(server.request_expand(2, Callback::ignore()), std::invalid_argument);
}

}  // namespace
