// Location management and migration protocol tests (§II-D): home tables,
// cache updates, forwarding, in-transit buffering, and state preservation
// across PUP-based migrations.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "runtime/charm.hpp"

#include "test_util.hpp"

namespace {

using charm::ArrayProxy;

struct Msg {
  int v = 0;
  void pup(pup::Er& p) { p | v; }
};

class Roamer : public charm::ArrayElement<Roamer, std::int32_t> {
 public:
  std::vector<int> log;
  int migrations_seen = 0;
  sim::Rng rng{7};

  void recv(const Msg& m) {
    log.push_back(m.v);
    charm::charge(0.5e-6);
  }
  void hop(const Msg& m) { migrate_to(m.v); }
  void die(const Msg&) { charm::runtime().destroy_self(); }
  void on_migrated() override { ++migrations_seen; }

  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | log;
    p | migrations_seen;
    p | rng;
  }
};

using charmtest::Harness;

// Location-record invariant (DESIGN.md §15), checked at a quiescent point:
// on every PE, each record points at the element `elems` holds for its
// index (or at none); once a PE's records are built, every element it hosts
// has one; and Collection::find (a record probe) agrees with a linear scan
// of `elems` for every index in [0, nelems).
void expect_records_consistent(charm::Collection& c, int nelems) {
  auto check_records = [&c] {
    c.pe.for_each_touched([](std::size_t p, charm::PeLocal& pl) {
      pl.records.for_each([&](const charm::ObjIndex& ix, const charm::LocRecord& r) {
        auto it = pl.elems.find(ix);
        EXPECT_EQ(pl.here(r), it == pl.elems.end() ? nullptr : it->second.get())
            << "PE " << p << " index " << charm::to_string(ix);
      });
      if (!pl.records_built) return;
      EXPECT_EQ(pl.hosted.size(), pl.elems.size()) << "PE " << p;
      for (const auto& [ix, obj] : pl.elems) {
        const charm::LocRecord* r = pl.records.find(ix);
        ASSERT_NE(r, nullptr) << "PE " << p << " index " << charm::to_string(ix);
        EXPECT_EQ(pl.here(*r), obj.get());
      }
    });
  };
  check_records();
  for (int pe = 0; pe < static_cast<int>(c.pe.size()); ++pe) {
    for (int i = 0; i < nelems; ++i) {
      const charm::ObjIndex ix = charm::IndexTraits<std::int32_t>::encode(i);
      charm::ArrayElementBase* scanned = nullptr;
      if (const charm::PeLocal* pl = c.local_if(pe))
        for (const auto& [k, obj] : pl->elems)
          if (k == ix) scanned = obj.get();
      EXPECT_EQ(c.find(pe, ix), scanned) << "PE " << pe << " index " << i;
    }
  }
  check_records();  // the probes above built every touched PE's records
}

TEST(Location, ElementSeededAwayFromHomeIsReachable) {
  Harness h(8);
  auto arr = ArrayProxy<Roamer>::create(h.rt);
  // Find an index whose home is NOT PE 3, then seed it on PE 3.
  std::int32_t ix = 0;
  while (h.rt.home_pe(charm::IndexTraits<std::int32_t>::encode(ix)) == 3) ++ix;
  arr.seed(ix, 3);
  h.rt.on_pe(0, [&] { arr[ix].send<&Roamer::recv>(Msg{1}); });
  h.machine.run();
  EXPECT_EQ(h.find<Roamer>(arr.id(), ix)->log.size(), 1u);
}

TEST(Location, MigrationPreservesStateViaPup) {
  Harness h(4);
  auto arr = ArrayProxy<Roamer>::create(h.rt);
  arr.seed(0, 0);
  h.rt.on_pe(0, [&] {
    arr[0].send<&Roamer::recv>(Msg{11});
    arr[0].send<&Roamer::recv>(Msg{22});
    arr[0].send<&Roamer::hop>(Msg{2});  // migrate to PE 2
  });
  h.machine.run();
  int pe = -1;
  Roamer* r = h.find<Roamer>(arr.id(), 0, &pe);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(pe, 2);
  EXPECT_EQ(r->migrations_seen, 1);
  ASSERT_EQ(r->log.size(), 2u);
  EXPECT_EQ(r->log[0], 11);
  EXPECT_EQ(r->log[1], 22);
}

TEST(Location, RngStreamSurvivesMigration) {
  Harness h(4);
  auto arr = ArrayProxy<Roamer>::create(h.rt);
  arr.seed(0, 0);
  // Draw two values pre-migration on a reference copy.
  sim::Rng ref{7};
  (void)ref.next_u64();
  h.rt.on_pe(0, [&] {
    h.find<Roamer>(arr.id(), 0)->rng.next_u64();  // advance once
    arr[0].send<&Roamer::hop>(Msg{3});
  });
  h.machine.run();
  EXPECT_EQ(h.find<Roamer>(arr.id(), 0)->rng.next_u64(), ref.next_u64());
}

TEST(Location, MessagesInFlightDuringMigrationAreDelivered) {
  Harness h(8);
  auto arr = ArrayProxy<Roamer>::create(h.rt);
  arr.seed(0, 0);
  h.rt.on_pe(0, [&] {
    // Burst of messages interleaved with two migrations: every message must
    // land exactly once, in order of virtual delivery.
    for (int i = 0; i < 5; ++i) arr[0].send<&Roamer::recv>(Msg{i});
    arr[0].send<&Roamer::hop>(Msg{5});
    for (int i = 5; i < 10; ++i) arr[0].send<&Roamer::recv>(Msg{i});
    arr[0].send<&Roamer::hop>(Msg{6});
    for (int i = 10; i < 15; ++i) arr[0].send<&Roamer::recv>(Msg{i});
  });
  h.machine.run();
  int pe = -1;
  Roamer* r = h.find<Roamer>(arr.id(), 0, &pe);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(pe, 6);
  EXPECT_EQ(r->migrations_seen, 2);
  ASSERT_EQ(r->log.size(), 15u);
  std::vector<int> sorted = r->log;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 15; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Location, CacheLearnsNewLocation) {
  Harness h(8);
  auto arr = ArrayProxy<Roamer>::create(h.rt);
  arr.seed(0, 0);
  const std::uint64_t before = h.rt.forwards();
  h.rt.on_pe(0, [&] {
    arr[0].send<&Roamer::hop>(Msg{5});
  });
  h.machine.run();
  h.machine.resume();
  // Repeated sends from PE 2: first may forward via home, later ones should
  // hit the cache and go direct.
  for (int k = 0; k < 6; ++k) {
    h.rt.on_pe(2, [&] { arr[0].send<&Roamer::recv>(Msg{k}); });
    h.machine.run();
    h.machine.resume();
  }
  const std::uint64_t fwds = h.rt.forwards() - before;
  EXPECT_LE(fwds, 2u) << "location cache should stop repeated forwarding";
  EXPECT_EQ(h.find<Roamer>(arr.id(), 0)->log.size(), 6u);
}

TEST(Location, HomeTablesAreDistributed) {
  // O(#elements/P) home records per PE, not O(#elements) (§IV-A-4).
  Harness h(16);
  auto arr = ArrayProxy<Roamer>::create(h.rt);
  const int n = 512;
  for (int i = 0; i < n; ++i) arr.seed(i, i % 16);
  std::size_t max_home = 0;
  for (int pe = 0; pe < 16; ++pe)
    max_home = std::max(max_home, h.rt.collection(arr.id()).local(pe).home.size());
  EXPECT_LT(max_home, static_cast<std::size_t>(3 * n / 16));
}

TEST(Location, RebuildLocationTablesAfterManualMoves) {
  Harness h(4);
  auto arr = ArrayProxy<Roamer>::create(h.rt);
  for (int i = 0; i < 12; ++i) arr.seed(i, i % 4);
  h.rt.on_pe(0, [&] {
    for (int i = 0; i < 12; ++i) arr[i].send<&Roamer::hop>(Msg{(i + 1) % 4});
  });
  h.machine.run();
  charm::Collection& c = h.rt.collection(arr.id());
  expect_records_consistent(c, 12);
  h.rt.rebuild_location_tables();
  for (int pe = 0; pe < 4; ++pe) {
    if (const charm::PeLocal* pl = c.local_if(pe)) {
      EXPECT_EQ(pl->records.size(), 0u);
    }
  }
  expect_records_consistent(c, 12);
  h.machine.resume();
  // All still reachable after rebuild.
  h.rt.on_pe(0, [&] {
    for (int i = 0; i < 12; ++i) arr[i].send<&Roamer::recv>(Msg{100 + i});
  });
  h.machine.run();
  expect_records_consistent(c, 12);
  for (int i = 0; i < 12; ++i) {
    Roamer* r = h.find<Roamer>(arr.id(), i);
    ASSERT_NE(r, nullptr) << i;
    EXPECT_EQ(r->log.back(), 100 + i);
  }
}

// Property sweep: random migration/messaging interleavings always deliver
// every message exactly once.  Between rounds the sequence also destroys
// elements and pulls one out and re-seeds it elsewhere (the FT rollback
// path), and every quiescent point checks the location-record invariant.
class LocationStress : public ::testing::TestWithParam<int> {};

TEST_P(LocationStress, RandomMigrationsNeverLoseMessages) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Harness h(8);
  auto arr = ArrayProxy<Roamer>::create(h.rt);
  charm::Collection& c = h.rt.collection(arr.id());
  const int nelems = 6;
  for (int i = 0; i < nelems; ++i) arr.seed(i, i % 8);
  sim::Rng rng(seed);
  std::vector<int> live;
  for (int i = 0; i < nelems; ++i) live.push_back(i);
  auto pick_live = [&] {
    return live[static_cast<std::size_t>(rng.next_below(live.size()))];
  };
  int sends = 0;
  int delivered = 0;  // messages logged by elements destroyed along the way
  for (int round = 0; round < 4; ++round) {
    h.rt.on_pe(0, [&] {
      for (int step = 0; step < 30; ++step) {
        const int target = pick_live();
        if (rng.next_double() < 0.25) {
          arr[target].send<&Roamer::hop>(Msg{static_cast<int>(rng.next_below(8))});
        } else {
          arr[target].send<&Roamer::recv>(Msg{sends++});
        }
      }
    });
    h.machine.run();
    h.machine.resume();
    expect_records_consistent(c, nelems);

    const double u = rng.next_double();
    const int victim = pick_live();
    if (u < 0.35 && live.size() > 2) {
      // Destroy: the element's log is final at quiescence.
      delivered += static_cast<int>(h.find<Roamer>(arr.id(), victim)->log.size());
      h.rt.on_pe(0, [&] { arr[victim].send<&Roamer::die>(Msg{}); });
      h.machine.run();
      h.machine.resume();
      live.erase(std::find(live.begin(), live.end(), victim));
      EXPECT_EQ(h.find<Roamer>(arr.id(), victim), nullptr);
    } else if (u < 0.7) {
      // FT rollback shape: extract without protocol, re-seed on another PE,
      // and (like a restore) sometimes rebuild the location tables.
      int from = -1;
      ASSERT_NE(h.find<Roamer>(arr.id(), victim, &from), nullptr);
      const charm::ObjIndex ix = charm::IndexTraits<std::int32_t>::encode(victim);
      std::unique_ptr<charm::ArrayElementBase> obj = h.rt.extract_local(arr.id(), ix, from);
      ASSERT_NE(obj, nullptr);
      expect_records_consistent(c, nelems);
      h.rt.seed_element(arr.id(), ix, std::move(obj), static_cast<int>(rng.next_below(8)));
      if (rng.next_double() < 0.5) h.rt.rebuild_location_tables();
    }
    expect_records_consistent(c, nelems);
  }
  for (int i : live) {
    Roamer* r = h.find<Roamer>(arr.id(), i);
    ASSERT_NE(r, nullptr);
    delivered += static_cast<int>(r->log.size());
  }
  EXPECT_EQ(delivered, sends);
  EXPECT_EQ(h.rt.outstanding(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocationStress, ::testing::Range(1, 9));

}  // namespace
