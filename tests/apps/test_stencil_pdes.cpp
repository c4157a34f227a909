// Stencil2D and PDES mini-app tests.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "miniapps/pdes/pdes.hpp"
#include "miniapps/stencil/stencil.hpp"
#include "sim/rng.hpp"

#include "test_util.hpp"

namespace {

using namespace charm;

using charmtest::Harness;

// ---- Stencil2D ---------------------------------------------------------------

TEST(Stencil, JacobiConverges) {
  Harness h(4);
  stencil::Params p;
  p.grid = 64;
  p.tiles_x = p.tiles_y = 4;
  stencil::Sim sim(h.rt, p);
  double first = -1, last = -1;
  bool done = false;
  h.rt.on_pe(0, [&] {
    sim.run(5, Callback::to_function([&](ReductionResult&& r) {
      first = r.num(0);
      sim.run(40, Callback::to_function([&](ReductionResult&& r2) {
        last = r2.num(0);
        done = true;
      }));
    }));
  });
  h.machine.run();
  ASSERT_TRUE(done);
  EXPECT_GT(first, 0);
  EXPECT_LT(last, first) << "Jacobi update magnitude must shrink";
}

TEST(Stencil, DeterministicAcrossPeCounts) {
  auto run = [](int npes) {
    Harness h(npes);
    stencil::Params p;
    p.grid = 32;
    p.tiles_x = p.tiles_y = 4;
    stencil::Sim sim(h.rt, p);
    bool done = false;
    h.rt.on_pe(0, [&] {
      sim.run(10, Callback::to_function([&](ReductionResult&&) { done = true; }));
    });
    h.machine.run();
    EXPECT_TRUE(done);
    return sim.global_delta();
  };
  EXPECT_DOUBLE_EQ(run(1), run(5));
}

TEST(Stencil, InterferenceSlowsIterationsAndLbRecovers) {
  // The Fig 16 mechanism in miniature.
  auto run = [](bool with_lb) {
    Harness h(8);
    stencil::Params p;
    p.grid = 128;
    p.tiles_x = p.tiles_y = 8;
    p.cell_cost = 40e-9;
    stencil::Sim sim(h.rt, p);
    if (with_lb) {
      h.rt.lb().set_strategy(lb::make_greedy());
      h.rt.lb().set_period(10);
    }
    bool done = false;
    h.rt.on_pe(0, [&] {
      // Interfering VM lands on PE 3 immediately: 0.4x effective speed.
      h.machine.pe(3).set_freq(0.4);
      sim.run(60, Callback::to_function([&](ReductionResult&&) { done = true; }));
    });
    h.machine.run();
    EXPECT_TRUE(done);
    return h.machine.max_pe_clock();
  };
  const double t_lb = run(true);
  const double t_nolb = run(false);
  EXPECT_LT(t_lb, t_nolb * 0.9)
      << "speed-aware LB must migrate work off the interfered PE";
}

// ---- Jacobi kernel (DESIGN.md §16) ---------------------------------------------

/// The per-cell loop Tile::sweep ran before the row kernel, kept as the
/// oracle: tile (mx, my) of a tx x ty grid, W x H cells, `ghosts` per side
/// (an empty strip is missing and reads 0.0).  Returns the squared-update sum.
double cell_loop_sweep(const std::vector<double>& u, std::vector<double>& unew, int W, int H,
                       int mx, int my, int tx, int ty, const std::vector<double> (&ghosts)[4]) {
  auto at = [W](const std::vector<double>& v, int i, int j) {
    return v[static_cast<std::size_t>(j * W + i)];
  };
  auto ghost_or = [&](int side, int k, double fallback) {
    return ghosts[side].empty() ? fallback : ghosts[side][static_cast<std::size_t>(k)];
  };
  double delta = 0;
  for (int j = 0; j < H; ++j) {
    for (int i = 0; i < W; ++i) {
      double& out = unew[static_cast<std::size_t>(j * W + i)];
      if (mx == 0 && i == 0) {
        out = at(u, i, j);
        continue;
      }
      const double left = i > 0 ? at(u, i - 1, j) : (mx > 0 ? ghost_or(0, j, 0.0) : at(u, i, j));
      const double right =
          i < W - 1 ? at(u, i + 1, j) : (mx < tx - 1 ? ghost_or(1, j, 0.0) : at(u, i, j));
      const double down = j > 0 ? at(u, i, j - 1) : (my > 0 ? ghost_or(2, i, 0.0) : at(u, i, j));
      const double up =
          j < H - 1 ? at(u, i, j + 1) : (my < ty - 1 ? ghost_or(3, i, 0.0) : at(u, i, j));
      const double v = 0.25 * (left + right + down + up);
      const double d = v - at(u, i, j);
      delta += d * d;
      out = v;
    }
  }
  return delta;
}

TEST(StencilKernel, RowSweepIsBitEqualToCellLoop) {
  sim::Rng rng(14);
  // Mixed binary exponents: same-exponent values add exactly, so without
  // them a changed addition order could go unnoticed.
  auto fill = [&rng](std::vector<double>& v, std::size_t n) {
    v.resize(n);
    for (double& x : v) {
      const int exponent = static_cast<int>(rng.next_below(17)) - 8;
      x = std::ldexp(2.0 * rng.next_double() - 1.0, exponent);
    }
  };
  const std::pair<int, int> grids[] = {{3, 3}, {1, 1}, {1, 3}, {3, 1}};
  const int sizes[] = {1, 2, 3, 5, 32};
  int cases = 0;
  for (const auto& [tx, ty] : grids) {
    for (int mx = 0; mx < tx; ++mx) {
      for (int my = 0; my < ty; ++my) {
        const bool neighbour[4] = {mx > 0, mx < tx - 1, my > 0, my < ty - 1};
        for (int W : sizes) {
          for (int H : sizes) {
            // missing == -1: every neighbour's strip arrived; else that side's is absent.
            for (int missing = -1; missing < 4; ++missing) {
              if (missing >= 0 && !neighbour[missing]) continue;
              std::vector<double> u, ghosts[4];
              fill(u, static_cast<std::size_t>(W * H));
              stencil::kernel::Side sides[4];
              for (int s = 0; s < 4; ++s) {
                sides[s].boundary = !neighbour[s];
                if (!neighbour[s] || s == missing) continue;
                fill(ghosts[s], static_cast<std::size_t>(s < 2 ? H : W));
                sides[s].ghost = ghosts[s].data();
              }
              std::vector<double> want(u.size(), -7.0), got(u.size(), -7.0);
              const double want_delta = cell_loop_sweep(u, want, W, H, mx, my, tx, ty, ghosts);
              const double got_delta = stencil::kernel::sweep(u.data(), got.data(), W, H, sides);
              SCOPED_TRACE(::testing::Message() << "grid " << tx << "x" << ty << " tile (" << mx
                                                << "," << my << ") " << W << "x" << H
                                                << " missing " << missing);
              EXPECT_EQ(0, std::memcmp(want.data(), got.data(), want.size() * sizeof(double)));
              EXPECT_EQ(0, std::memcmp(&want_delta, &got_delta, sizeof(double)));
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 1000);
}

// ---- PDES / PHOLD ---------------------------------------------------------------

TEST(Pdes, ExecutesEventsInWindows) {
  Harness h(4);
  pdes::Params p;
  p.nlps = 64;
  p.initial_events_per_lp = 8;
  pdes::Engine eng(h.rt, p);
  bool done = false;
  h.rt.on_pe(0, [&] {
    eng.run_until(10.0, Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(done);
  EXPECT_GT(eng.windows(), 3);
  EXPECT_GT(eng.total_executed(), 500u);
}

TEST(Pdes, PholdPopulationIsStable) {
  // PHOLD conserves the event population: every execution spawns exactly one
  // successor, so executed events ~= windows * population in steady state.
  Harness h(2);
  pdes::Params p;
  p.nlps = 32;
  p.initial_events_per_lp = 4;
  pdes::Engine eng(h.rt, p);
  bool done = false;
  h.rt.on_pe(0, [&] {
    eng.run_until(20.0, Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(done);
  // All seeded events execute eventually; populations never die out.
  EXPECT_GT(eng.total_executed(), static_cast<std::uint64_t>(32 * 4 * 5));
}

TEST(Pdes, TramAndDirectExecuteSameEventCount) {
  auto run = [](bool tram) {
    Harness h(8);
    pdes::Params p;
    p.nlps = 64;
    p.initial_events_per_lp = 16;
    p.use_tram = tram;
    p.tram_buffer = 16;
    pdes::Engine eng(h.rt, p);
    bool done = false;
    h.rt.on_pe(0, [&] {
      eng.run_until(8.0, Callback::to_function([&](ReductionResult&&) { done = true; }));
    });
    h.machine.run();
    EXPECT_TRUE(done);
    return eng.total_executed();
  };
  const auto direct = run(false);
  const auto tram = run(true);
  EXPECT_EQ(direct, tram) << "transport must not change simulation semantics";
}

TEST(Pdes, TramWinsAtHighEventVolume) {
  auto rate = [](bool tram, int events_per_lp) {
    Harness h(8);
    pdes::Params p;
    p.nlps = 128;
    p.initial_events_per_lp = events_per_lp;
    p.use_tram = tram;
    p.tram_buffer = 64;
    pdes::Engine eng(h.rt, p);
    h.rt.on_pe(0, [&] { eng.run_until(6.0, Callback::ignore()); });
    h.machine.run();
    return static_cast<double>(eng.total_executed()) / h.machine.max_pe_clock();
  };
  // High volume: aggregation pays (Fig 15b's right side).
  EXPECT_GT(rate(true, 64), rate(false, 64));
}

TEST(Pdes, OverdecompositionRaisesEventRate) {
  auto rate = [](int nlps) {
    Harness h(4);
    pdes::Params p;
    p.nlps = nlps;
    p.initial_events_per_lp = 16;
    pdes::Engine eng(h.rt, p);
    h.rt.on_pe(0, [&] { eng.run_until(6.0, Callback::ignore()); });
    h.machine.run();
    return static_cast<double>(eng.total_executed()) / h.machine.max_pe_clock();
  };
  // More LPs per PE => more useful work per window barrier (Fig 15a).
  EXPECT_GT(rate(256), rate(16));
}

}  // namespace
