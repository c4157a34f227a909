// What an element PUPs is all the next entry may read.
//
// Stencil tiles and Barnes pieces PUP only their live state: the sweep's
// output grid and the step's gathered piece summaries are scratch, rebuilt or
// sized on unpack (DESIGN.md §16).  Each case runs an app one step at a time
// and, at every step boundary, replaces every element with a PUP copy of
// itself — pack, a fresh element from create_default, unpack — while an
// undisturbed twin runs the same steps.  The results must be bit-equal.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "lb/manager.hpp"
#include "lb/strategy.hpp"
#include "miniapps/barnes/barnes.hpp"
#include "miniapps/stencil/stencil.hpp"
#include "runtime/registry.hpp"

#include "test_util.hpp"

namespace {

using namespace charm;
using charmtest::Harness;

/// The elements of PE p in its element map's iteration order.
std::vector<ObjIndex> map_order(Collection& c, int p) {
  std::vector<ObjIndex> ids;
  if (PeLocal* pl = c.local_if(p)) {
    for (auto& [ix, obj] : pl->elems) ids.push_back(ix);
  }
  return ids;
}

/// Replaces every element of `col` with a PUP copy built from a
/// default-constructed element, on the PE that hosts it.  Broadcast delivery
/// follows the element map's iteration order, and that order feeds virtual
/// time, so each PE re-seeds its elements in reverse map order (which
/// rebuilds the same order) and the order is checked.  Learned locations stay
/// as they are: every element stays on its PE, and forgetting them would add
/// forwarding hops the twin does not take.
void pup_roundtrip_all(Runtime& rt, CollectionId col) {
  Collection& c = rt.collection(col);
  const ChareTypeInfo& info = Registry::instance().type(c.type);
  for (int p = 0; p < rt.npes(); ++p) {
    const std::vector<ObjIndex> order = map_order(c, p);
    std::vector<std::unique_ptr<ArrayElementBase>> copies;
    for (const ObjIndex& ix : order) {
      std::unique_ptr<ArrayElementBase> old = rt.extract_local(col, ix, p);
      std::vector<std::byte> bytes;
      pup::Packer pk(bytes);
      old->pup(pk);
      std::unique_ptr<ArrayElementBase> fresh(info.create_default());
      pup::Unpacker u(bytes);
      fresh->pup(u);
      copies.push_back(std::move(fresh));
    }
    for (std::size_t k = order.size(); k-- > 0;)
      rt.seed_element(col, order[k], std::move(copies[k]), p);
    ASSERT_EQ(map_order(c, p), order) << "PE " << p << ": element map order changed";
  }
}

// ---- Stencil ---------------------------------------------------------------------------

struct StencilOut {
  std::vector<std::vector<double>> values;
  std::vector<double> deltas;
  double makespan = 0;
};

StencilOut run_stencil(bool roundtrip) {
  constexpr int kSteps = 8;
  Harness h(4);
  stencil::Params p;
  p.grid = 36;  // 9 x 12 cells per tile
  p.tiles_x = 4;
  p.tiles_y = 3;
  p.imbalance = 1.0;
  stencil::Sim sim(h.rt, p);
  // Rotate moves every tile at every sync, so migration unpacks run too.
  h.rt.lb().set_strategy(lb::make_rotate());
  for (int step = 0; step < kSteps; ++step) {
    bool done = false;
    h.rt.on_pe(0, [&] {
      sim.run(1, Callback::to_function([&](ReductionResult&&) { done = true; }));
    });
    h.machine.run();
    EXPECT_TRUE(done) << "step " << step;
    if (roundtrip) pup_roundtrip_all(h.rt, sim.tiles().id());
  }
  StencilOut out;
  out.values.resize(static_cast<std::size_t>(sim.ntiles()));
  out.deltas.resize(out.values.size());
  h.rt.collection(sim.tiles().id()).for_each_element([&](const ArrayElementBase& e) {
    const auto& t = static_cast<const stencil::Tile&>(e);
    const auto k = static_cast<std::size_t>(t.index().x * p.tiles_y + t.index().y);
    out.values[k] = t.values();
    out.deltas[k] = t.last_delta();
  });
  out.makespan = h.machine.max_pe_clock();
  return out;
}

TEST(LiveState, StencilPupRoundTripEveryStepIsBitEqual) {
  const StencilOut twin = run_stencil(false);
  const StencilOut copied = run_stencil(true);
  ASSERT_EQ(twin.values.size(), copied.values.size());
  for (std::size_t k = 0; k < twin.values.size(); ++k) {
    ASSERT_FALSE(twin.values[k].empty()) << k;
    ASSERT_EQ(twin.values[k].size(), copied.values[k].size()) << k;
    EXPECT_EQ(0, std::memcmp(twin.values[k].data(), copied.values[k].data(),
                             twin.values[k].size() * sizeof(double)))
        << "tile " << k;
    EXPECT_EQ(0, std::memcmp(&twin.deltas[k], &copied.deltas[k], sizeof(double))) << k;
  }
  EXPECT_GT(twin.deltas[0], 0.0);
  EXPECT_EQ(twin.makespan, copied.makespan);
}

// ---- Barnes ----------------------------------------------------------------------------

struct BarnesOut {
  std::vector<std::vector<barnes::Body>> bodies;  ///< per piece
  double makespan = 0;
};

BarnesOut run_barnes(bool roundtrip) {
  constexpr int kSteps = 3;
  barnes::Params p;
  p.pieces_per_dim = 3;
  p.nparticles = 600;
  Harness h(4);
  barnes::Simulation sim(h.rt, p);
  h.rt.lb().set_strategy(lb::make_orb());
  for (int step = 0; step < kSteps; ++step) {
    bool done = false;
    h.rt.on_pe(0, [&] {
      sim.run(1, Callback::to_function([&](ReductionResult&&) { done = true; }));
    });
    h.machine.run();
    EXPECT_TRUE(done) << "step " << step;
    if (roundtrip) pup_roundtrip_all(h.rt, sim.pieces().id());
  }
  BarnesOut out;
  out.bodies.resize(static_cast<std::size_t>(sim.npieces()));
  h.rt.collection(sim.pieces().id()).for_each_element([&](const ArrayElementBase& e) {
    const auto& piece = static_cast<const barnes::Piece&>(e);
    out.bodies[static_cast<std::size_t>(piece.index())] = piece.bodies();
  });
  out.makespan = h.machine.max_pe_clock();
  return out;
}

TEST(LiveState, BarnesPupRoundTripEveryStepIsBitEqual) {
  const BarnesOut twin = run_barnes(false);
  const BarnesOut copied = run_barnes(true);
  ASSERT_EQ(twin.bodies.size(), copied.bodies.size());
  std::size_t total = 0;
  for (std::size_t k = 0; k < twin.bodies.size(); ++k) {
    ASSERT_EQ(twin.bodies[k].size(), copied.bodies[k].size()) << "piece " << k;
    total += twin.bodies[k].size();
    if (twin.bodies[k].empty()) continue;  // an outer piece may hold no bodies
    // Positions, velocities and masses, bit for bit.
    EXPECT_EQ(0, std::memcmp(twin.bodies[k].data(), copied.bodies[k].data(),
                             twin.bodies[k].size() * sizeof(barnes::Body)))
        << "piece " << k;
  }
  EXPECT_EQ(total, 600u);
  EXPECT_EQ(twin.makespan, copied.makespan);
}

}  // namespace
