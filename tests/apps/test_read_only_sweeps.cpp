// Read-only host sweeps must not first-touch PE state.
//
// Every mini-app exposes diagnostics that fold over all of its elements
// (body counts, momenta, masses, executed-event totals).  On a 65536-PE
// machine whose app occupies a few dozen PEs, a sweep that used the
// write-intent Collection::local() would page in a PeLocal slot on every PE.
// Each case builds one app, runs its sweeps, and checks that neither the
// machine census nor the collection's paged state moved.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <memory>

#include "miniapps/amr/amr.hpp"
#include "miniapps/barnes/barnes.hpp"
#include "miniapps/leanmd/leanmd.hpp"
#include "miniapps/pdes/pdes.hpp"
#include "miniapps/stencil/stencil.hpp"

#include "test_util.hpp"

namespace {

using namespace charm;
using charmtest::Harness;

bool finite3(const std::array<double, 3>& v) { return std::isfinite(v[0] + v[1] + v[2]); }

/// One app, built on a runtime: its collection and its sweeps (run as one
/// call, with their own value checks).
struct App {
  CollectionId col = -1;
  std::function<void()> sweeps;
};

/// The shared check every app's sweeps go through: 65536 PEs, sweeps run,
/// and no PE state paged in.
void expect_sweeps_touch_no_pe_state(App (*build)(Runtime& rt)) {
  Harness h(65536);
  const App app = build(h.rt);
  const std::size_t slots = h.rt.collection(app.col).pe.touched();
  const Runtime::MemoryFootprint before = h.rt.memory_footprint();
  app.sweeps();
  const Runtime::MemoryFootprint after = h.rt.memory_footprint();
  // touched_pes alone is the machine census and misses PeLocal first-touch;
  // the collection's byte count and slot census catch it.
  EXPECT_EQ(after.touched_pes, before.touched_pes);
  EXPECT_EQ(after.collection_bytes, before.collection_bytes);
  EXPECT_EQ(h.rt.collection(app.col).pe.touched(), slots);
}

App barnes_app(Runtime& rt) {
  barnes::Params p;
  p.pieces_per_dim = 3;
  p.nparticles = 600;
  auto sim = std::make_shared<barnes::Simulation>(rt, p);
  return {sim->pieces().id(), [sim] {
            EXPECT_EQ(sim->total_bodies(), 600u);
            EXPECT_TRUE(finite3(sim->total_momentum()));
          }};
}

App pdes_app(Runtime& rt) {
  pdes::Params p;
  p.nlps = 64;
  p.initial_events_per_lp = 4;
  auto eng = std::make_shared<pdes::Engine>(rt, p);
  return {eng->lps().id(), [eng] { EXPECT_EQ(eng->total_executed(), 0u); }};
}

App stencil_app(Runtime& rt) {
  stencil::Params p;
  p.grid = 64;
  p.tiles_x = p.tiles_y = 4;
  auto sim = std::make_shared<stencil::Sim>(rt, p);
  return {sim->tiles().id(), [sim] { EXPECT_TRUE(std::isfinite(sim->global_delta())); }};
}

App amr_app(Runtime& rt) {
  amr::Params p;
  p.block = 4;
  p.min_depth = 1;
  p.max_depth = 3;
  auto mesh = std::make_shared<amr::Mesh>(rt, p);
  return {mesh->blocks().id(), [mesh] {
            EXPECT_TRUE(std::isfinite(mesh->total_mass()));
            EXPECT_EQ(mesh->max_depth_present(), 1);
            EXPECT_EQ(mesh->min_depth_present(), 1);
          }};
}

App leanmd_app(Runtime& rt) {
  leanmd::Params p;
  p.nx = p.ny = p.nz = 3;
  p.atoms_per_cell = 6;
  auto sim = std::make_shared<leanmd::Simulation>(rt, p);
  return {sim->cells().id(), [sim] {
            EXPECT_EQ(sim->total_atoms(), 27u * 6u);
            EXPECT_TRUE(finite3(sim->total_momentum()));
            EXPECT_GT(sim->kinetic_energy(), 0.0);
          }};
}

TEST(Barnes, ReadOnlySweepsTouchNoPeState) { expect_sweeps_touch_no_pe_state(&barnes_app); }
TEST(Pdes, ReadOnlySweepsTouchNoPeState) { expect_sweeps_touch_no_pe_state(&pdes_app); }
TEST(Stencil, ReadOnlySweepsTouchNoPeState) { expect_sweeps_touch_no_pe_state(&stencil_app); }
TEST(Amr, ReadOnlySweepsTouchNoPeState) { expect_sweeps_touch_no_pe_state(&amr_app); }
TEST(LeanMd, ReadOnlySweepsTouchNoPeState) { expect_sweeps_touch_no_pe_state(&leanmd_app); }

}  // namespace
