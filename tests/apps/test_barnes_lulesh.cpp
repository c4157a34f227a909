// Barnes-Hut and LULESH-proxy tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "miniapps/barnes/barnes.hpp"
#include "miniapps/lulesh/lulesh.hpp"
#include "sim/rng.hpp"

#include "test_util.hpp"

namespace {

using namespace charm;

using charmtest::Harness;

barnes::Params small_barnes() {
  barnes::Params p;
  p.pieces_per_dim = 3;
  p.nparticles = 600;
  return p;
}

TEST(Barnes, RunsAndConservesParticleCount) {
  Harness h(4);
  barnes::Simulation sim(h.rt, small_barnes());
  EXPECT_EQ(sim.total_bodies(), 600u);
  bool done = false;
  h.rt.on_pe(0, [&] {
    sim.run(3, Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(sim.total_bodies(), 600u);
  ASSERT_EQ(sim.phase_times().size(), 3u);
}

TEST(Barnes, PhaseBreakdownIsMeasured) {
  Harness h(4);
  barnes::Simulation sim(h.rt, small_barnes());
  bool done = false;
  h.rt.on_pe(0, [&] {
    sim.run(2, Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(done);
  for (const auto& t : sim.phase_times()) {
    EXPECT_GT(t.tb, 0);
    EXPECT_GT(t.gravity, 0);
    EXPECT_GT(t.lb, 0);
    EXPECT_GT(t.gravity, t.tb) << "gravity should dominate tree build";
    EXPECT_NEAR(t.total, t.dd + t.tb + t.gravity + t.lb, 1e-12);
  }
}

TEST(Barnes, GravityApproximatesDirectSummation) {
  // Compare the theta-opening simulation force integration against direct
  // O(N^2) on the same initial condition: velocities after one step should
  // agree within the monopole approximation tolerance.
  barnes::Params p = small_barnes();
  p.nparticles = 200;
  p.theta = 0.2;  // strict opening: mostly direct interactions
  Harness h(2);
  barnes::Simulation sim(h.rt, p);
  // Gather the initial bodies.
  std::vector<barnes::Body> init;
  {
    Collection& c = h.rt.collection(sim.pieces().id());
    for (int pe = 0; pe < h.rt.npes(); ++pe)
      for (auto& [ix, obj] : c.local(pe).elems)
        for (const auto& b : static_cast<barnes::Piece*>(obj.get())->bodies())
          init.push_back(b);
  }
  bool done = false;
  h.rt.on_pe(0, [&] {
    sim.run(1, Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(done);

  // Direct reference for total kinetic energy change direction.
  double ref_ke = 0;
  const double eps2 = p.soften * p.soften;
  for (std::size_t i = 0; i < init.size(); ++i) {
    double ax = 0, ay = 0, az = 0;
    for (std::size_t j = 0; j < init.size(); ++j) {
      if (i == j) continue;
      const double dx = init[j].x - init[i].x;
      const double dy = init[j].y - init[i].y;
      const double dz = init[j].z - init[i].z;
      const double r2 = dx * dx + dy * dy + dz * dz + eps2;
      const double inv = 1.0 / (r2 * std::sqrt(r2));
      ax += init[j].m * dx * inv;
      ay += init[j].m * dy * inv;
      az += init[j].m * dz * inv;
    }
    const double vx = init[i].vx + ax * p.dt;
    const double vy = init[i].vy + ay * p.dt;
    const double vz = init[i].vz + az * p.dt;
    ref_ke += 0.5 * init[i].m * (vx * vx + vy * vy + vz * vz);
  }
  double sim_ke = 0;
  Collection& c = h.rt.collection(sim.pieces().id());
  for (int pe = 0; pe < h.rt.npes(); ++pe)
    for (auto& [ix, obj] : c.local(pe).elems)
      for (const auto& b : static_cast<barnes::Piece*>(obj.get())->bodies())
        sim_ke += 0.5 * b.m * (b.vx * b.vx + b.vy * b.vy + b.vz * b.vz);
  EXPECT_NEAR(sim_ke, ref_ke, std::abs(ref_ke) * 0.05)
      << "theta=0.2 walk should be close to direct summation";
}

TEST(Barnes, ForceErrorAgainstDirectSumIsBounded) {
  // Force-accuracy oracle: one step's accelerations from the piece walk
  // (self and near pieces direct, far pieces as monopoles at theta = 0.5)
  // against an all-pairs direct sum over the same positions, with perfbench
  // barnes_orb's particle setup (1200 bodies, 216 pieces, concentration 0.8)
  // and the default seed.  The rms relative error is
  // sqrt(sum |a - a_direct|^2 / sum |a_direct|^2) over all bodies; the max is
  // the worst single body's |a - a_direct| / |a_direct|.  Measured here: rms
  // 1.4e-4, max 7.4e-3.  A different walk must state its error against
  // these bounds.
  barnes::Params p;
  p.pieces_per_dim = 6;
  p.nparticles = 1200;
  p.concentration = 0.8;
  Harness h(4);
  barnes::Simulation sim(h.rt, p);
  // Step 1's gravity sees the initial positions, in seeding order: every
  // body starts in the piece that owns it, so the DD phase moves none.
  std::vector<std::vector<barnes::Body>> init(static_cast<std::size_t>(sim.npieces()));
  std::vector<barnes::Body> all;
  for (std::int32_t i = 0; i < sim.npieces(); ++i) {
    init[static_cast<std::size_t>(i)] = h.find<barnes::Piece>(sim.pieces().id(), i)->bodies();
    all.insert(all.end(), init[static_cast<std::size_t>(i)].begin(),
               init[static_cast<std::size_t>(i)].end());
  }
  ASSERT_EQ(all.size(), 1200u);
  bool done = false;
  h.rt.on_pe(0, [&] {
    sim.run(1, Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(done);

  const double eps2 = p.soften * p.soften;
  double err_sq = 0, ref_sq = 0, max_err = 0;
  std::size_t global = 0;
  for (std::int32_t i = 0; i < sim.npieces(); ++i) {
    const barnes::Piece* piece = h.find<barnes::Piece>(sim.pieces().id(), i);
    const std::vector<barnes::Body>& bs = init[static_cast<std::size_t>(i)];
    const std::vector<double>& acc = piece->accelerations();
    const std::size_t n = bs.size();
    ASSERT_EQ(piece->bodies().size(), n) << "piece " << i << " exchanged bodies in step 1";
    ASSERT_EQ(acc.size(), 3 * n) << "piece " << i;
    for (std::size_t k = 0; k < n; ++k, ++global) {
      double d[3] = {0, 0, 0};
      for (std::size_t j = 0; j < all.size(); ++j) {
        if (j == global) continue;
        const double dx = all[j].x - bs[k].x, dy = all[j].y - bs[k].y, dz = all[j].z - bs[k].z;
        const double r2 = dx * dx + dy * dy + dz * dz + eps2;
        const double inv = 1.0 / (r2 * std::sqrt(r2));
        d[0] += all[j].m * dx * inv;
        d[1] += all[j].m * dy * inv;
        d[2] += all[j].m * dz * inv;
      }
      const double ex = acc[k] - d[0], ey = acc[n + k] - d[1], ez = acc[2 * n + k] - d[2];
      const double e2 = ex * ex + ey * ey + ez * ez;
      const double ref2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
      err_sq += e2;
      ref_sq += ref2;
      max_err = std::max(max_err, std::sqrt(e2 / ref2));
    }
  }
  ASSERT_EQ(global, all.size());
  const double rms = std::sqrt(err_sq / ref_sq);
  EXPECT_LE(rms, 1e-3) << "max " << max_err;
  EXPECT_LE(max_err, 2e-2) << "rms " << rms;
  EXPECT_GT(rms, 0.0) << "far pieces should be approximated";
}

TEST(Barnes, OverdecompositionBeatsOnePiecePerPe) {
  auto run = [](int pieces_per_dim, bool with_lb) {
    Harness h(8);
    barnes::Params p;
    p.pieces_per_dim = pieces_per_dim;
    p.nparticles = 6000;  // enough per-piece compute that overheads don't dominate
    barnes::Simulation sim(h.rt, p);
    if (with_lb) {
      h.rt.lb().set_strategy(lb::make_orb());
      h.rt.lb().set_period(2);
    }
    bool done = false;
    h.rt.on_pe(0, [&] {
      sim.run(6, Callback::to_function([&](ReductionResult&&) { done = true; }));
    });
    h.machine.run();
    EXPECT_TRUE(done);
    return h.machine.max_pe_clock();
  };
  // The paper's Fig 12 comparison: over-decomposed pieces balanced with ORB
  // ("500m") vs one piece per PE ("500m_NO").  The paper reports ~40%; our
  // piece-pair gravity approximation narrows the gap (EXPERIMENTS.md), so the
  // assertion is directional.
  EXPECT_LT(run(4, true), run(2, false));
}

TEST(Barnes, OrbLbImprovesClusteredRun) {
  auto run = [](bool with_lb) {
    Harness h(8);
    barnes::Params p;
    p.pieces_per_dim = 4;
    p.nparticles = 1500;
    p.concentration = 0.6;
    barnes::Simulation sim(h.rt, p);
    if (with_lb) {
      h.rt.lb().set_strategy(lb::make_orb());
      h.rt.lb().set_period(2);
    }
    bool done = false;
    h.rt.on_pe(0, [&] {
      sim.run(6, Callback::to_function([&](ReductionResult&&) { done = true; }));
    });
    h.machine.run();
    EXPECT_TRUE(done);
    return h.machine.max_pe_clock();
  };
  EXPECT_LT(run(true), run(false));
}

// ---- Gravity kernel: bit-identity with the body-major loops it replaced --------

// The pre-SoA loops, kept here only as the oracle: accelerations interleaved
// 3 per body, the symmetric self half-triangle, one-sided near replies
// (local body outside, remote bodies inside), and the far monopole.
void oracle_self(const std::vector<barnes::Body>& b, std::vector<double>& acc, double eps2) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    for (std::size_t j = i + 1; j < b.size(); ++j) {
      const double dx = b[j].x - b[i].x;
      const double dy = b[j].y - b[i].y;
      const double dz = b[j].z - b[i].z;
      const double r2 = dx * dx + dy * dy + dz * dz + eps2;
      const double inv = 1.0 / (r2 * std::sqrt(r2));
      acc[3 * i] += b[j].m * dx * inv;
      acc[3 * i + 1] += b[j].m * dy * inv;
      acc[3 * i + 2] += b[j].m * dz * inv;
      acc[3 * j] -= b[i].m * dx * inv;
      acc[3 * j + 1] -= b[i].m * dy * inv;
      acc[3 * j + 2] -= b[i].m * dz * inv;
    }
  }
}

void oracle_near(const std::vector<barnes::Body>& b, const std::vector<barnes::Body>& other,
                 std::vector<double>& acc, double eps2) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    for (const barnes::Body& o : other) {
      const double dx = o.x - b[i].x;
      const double dy = o.y - b[i].y;
      const double dz = o.z - b[i].z;
      const double r2 = dx * dx + dy * dy + dz * dz + eps2;
      const double inv = 1.0 / (r2 * std::sqrt(r2));
      acc[3 * i] += o.m * dx * inv;
      acc[3 * i + 1] += o.m * dy * inv;
      acc[3 * i + 2] += o.m * dz * inv;
    }
  }
}

void oracle_far(const std::vector<barnes::Body>& b, const barnes::kernel::Source& s,
                std::vector<double>& acc, double eps2) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double bx = s.x - b[i].x;
    const double by = s.y - b[i].y;
    const double bz = s.z - b[i].z;
    const double r2 = bx * bx + by * by + bz * bz + eps2;
    const double inv = 1.0 / (r2 * std::sqrt(r2));
    acc[3 * i] += s.m * bx * inv;
    acc[3 * i + 1] += s.m * by * inv;
    acc[3 * i + 2] += s.m * bz * inv;
  }
}

/// Bodies with varied masses, plus exact coincidences: every 7th body sits
/// on its predecessor (dx = dy = dz = 0) and every 5th shares its x only.
std::vector<barnes::Body> kernel_bodies(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<barnes::Body> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i].x = rng.next_double();
    b[i].y = rng.next_double();
    b[i].z = rng.next_double();
    b[i].m = 0.5 + rng.next_double();
    if (i > 0 && i % 7 == 0) {
      b[i].x = b[i - 1].x;
      b[i].y = b[i - 1].y;
      b[i].z = b[i - 1].z;
    } else if (i > 0 && i % 5 == 0) {
      b[i].x = b[i - 1].x;
    }
  }
  return b;
}

/// The kernel's inputs for `b`: blocked [x.. | y.. | z..] positions and a
/// zeroed blocked acceleration array.
struct SoaTargets {
  std::vector<double> pos, acc;
  explicit SoaTargets(const std::vector<barnes::Body>& b) : pos(3 * b.size()), acc(3 * b.size()) {
    const std::size_t n = b.size();
    for (std::size_t i = 0; i < n; ++i) {
      pos[i] = b[i].x;
      pos[n + i] = b[i].y;
      pos[2 * n + i] = b[i].z;
    }
  }
};

/// Byte-compares the kernel's blocked accelerations with the oracle's
/// interleaved ones (memcmp: -0.0 vs +0.0 or a last-bit difference fails).
bool bit_equal(const std::vector<double>& blocked, const std::vector<double>& interleaved) {
  const std::size_t n = interleaved.size() / 3;
  std::vector<double> t(interleaved.size());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < 3; ++c) t[c * n + i] = interleaved[3 * i + c];
  return blocked.size() == t.size() &&
         (t.empty() || std::memcmp(blocked.data(), t.data(), t.size() * sizeof(double)) == 0);
}

constexpr std::size_t kKernelSizes[] = {0, 1, 2, 3, 5, 64, 129, 300};
constexpr double kKernelEps2 = 0.05 * 0.05;

TEST(BarnesKernel, SelfSweepIsBitEqualToSymmetricTriangle) {
  for (std::size_t n : kKernelSizes) {
    const auto b = kernel_bodies(n, 100 + n);
    std::vector<double> ref(3 * n, 0.0);
    oracle_self(b, ref, kKernelEps2);
    SoaTargets t(b);
    barnes::kernel::add_self(t.pos.data(), t.acc.data(), b, kKernelEps2);
    EXPECT_TRUE(bit_equal(t.acc, ref)) << "n=" << n;
  }
}

TEST(BarnesKernel, NearAndFarAreBitEqualToBodyMajor) {
  for (std::size_t n : kKernelSizes) {
    for (std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{129}}) {
      const auto b = kernel_bodies(n, 200 + n);
      auto other = kernel_bodies(m, 300 + m);
      // A remote body exactly on a local one: the dx = 0 source case.
      if (n > 0) {
        other[0].x = b[n / 2].x;
        other[0].y = b[n / 2].y;
        other[0].z = b[n / 2].z;
      }
      const barnes::kernel::Source far{0.9, -0.4, 1.7, 3.25};
      std::vector<double> ref(3 * n, 0.0);
      oracle_near(b, other, ref, kKernelEps2);
      oracle_far(b, far, ref, kKernelEps2);
      SoaTargets t(b);
      barnes::kernel::add_bodies(t.pos.data(), t.acc.data(), n, other, kKernelEps2);
      barnes::kernel::add_source(t.pos.data(), t.acc.data(), n, 0, n, far, kKernelEps2);
      EXPECT_TRUE(bit_equal(t.acc, ref)) << "n=" << n << " m=" << m;
    }
  }
}

TEST(BarnesKernel, MixedSelfNearFarSequenceIsBitEqual) {
  // The order a piece sees in one gravity phase: self pairs, far monopoles
  // in summary order, then near replies as they arrive.
  for (std::size_t n : kKernelSizes) {
    const auto b = kernel_bodies(n, 400 + n);
    const auto near1 = kernel_bodies(5, 500 + n);
    const auto near2 = kernel_bodies(64, 600 + n);
    const barnes::kernel::Source far1{-0.5, 0.25, 0.125, 7.0};
    const barnes::kernel::Source far2{1.5, 1.25, -2.0, 0.03125};
    std::vector<double> ref(3 * n, 0.0);
    oracle_self(b, ref, kKernelEps2);
    oracle_far(b, far1, ref, kKernelEps2);
    oracle_far(b, far2, ref, kKernelEps2);
    oracle_near(b, near1, ref, kKernelEps2);
    oracle_near(b, near2, ref, kKernelEps2);
    SoaTargets t(b);
    barnes::kernel::add_self(t.pos.data(), t.acc.data(), b, kKernelEps2);
    barnes::kernel::add_source(t.pos.data(), t.acc.data(), n, 0, n, far1, kKernelEps2);
    barnes::kernel::add_source(t.pos.data(), t.acc.data(), n, 0, n, far2, kKernelEps2);
    barnes::kernel::add_bodies(t.pos.data(), t.acc.data(), n, near1, kKernelEps2);
    barnes::kernel::add_bodies(t.pos.data(), t.acc.data(), n, near2, kKernelEps2);
    EXPECT_TRUE(bit_equal(t.acc, ref)) << "n=" << n;
  }
}

// ---- Derived kernel state across PUP; read-only sweeps ---------------------------

TEST(Barnes, MigrationWithRepliesOutstandingFinishesBitExact) {
  // A piece awaiting its last near reply is PUP'd away (migrated, so it is
  // rebuilt from a default-constructed Piece with no position scratch); it
  // must finish gravity bit-equal to the same piece in an untouched twin run.
  // With one reply left, reply order cannot differ between the runs.
  const barnes::Params p = small_barnes();
  std::int32_t target = -1;
  std::uint64_t at_step = 0;
  std::vector<barnes::Body> twin;
  std::uint64_t twin_pairs = 0;
  {
    Harness h(4);
    barnes::Simulation sim(h.rt, p);
    bool done = false;
    h.rt.on_pe(0, [&] {
      sim.run(1, Callback::to_function([&](ReductionResult&&) { done = true; }));
    });
    for (std::uint64_t s = 1; h.machine.step(); ++s) {
      if (target >= 0) continue;
      for (std::int32_t i = 0; i < sim.npieces(); ++i) {
        if (h.find<barnes::Piece>(sim.pieces().id(), i)->replies_outstanding() == 1) {
          target = i;
          at_step = s;
          break;
        }
      }
    }
    ASSERT_TRUE(done);
    ASSERT_GE(target, 0) << "no piece ever awaited exactly one reply";
    const barnes::Piece* piece = h.find<barnes::Piece>(sim.pieces().id(), target);
    twin = piece->bodies();
    twin_pairs = piece->direct_pairs();
  }
  Harness h(4);
  barnes::Simulation sim(h.rt, p);
  bool done = false;
  h.rt.on_pe(0, [&] {
    sim.run(1, Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  for (std::uint64_t s = 0; s < at_step; ++s) ASSERT_TRUE(h.machine.step());
  int owner = -1;
  const barnes::Piece* before = h.find<barnes::Piece>(sim.pieces().id(), target, &owner);
  ASSERT_EQ(before->replies_outstanding(), 1);
  // Migration starts on the hosting PE; the piece must still await its reply.
  bool migrated = false;
  h.rt.on_pe(owner, [&] {
    if (before->replies_outstanding() != 1) return;
    h.rt.migrate(sim.pieces().id(), IndexTraits<std::int32_t>::encode(target),
                 (owner + 1) % h.rt.npes());
    migrated = true;
  }, kHighPriority);
  h.machine.run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(migrated) << "the last reply ran before the migration";
  int now = -1;
  const barnes::Piece* after = h.find<barnes::Piece>(sim.pieces().id(), target, &now);
  ASSERT_NE(after, nullptr);
  EXPECT_NE(now, owner) << "the piece should have migrated";
  EXPECT_EQ(after->direct_pairs(), twin_pairs);
  ASSERT_EQ(after->bodies().size(), twin.size());
  EXPECT_EQ(0, std::memcmp(after->bodies().data(), twin.data(), twin.size() * sizeof(barnes::Body)));
}

// ---- LULESH proxy -----------------------------------------------------------------

TEST(Lulesh, RunsAndIsDeterministic) {
  auto run = [](int npes) {
    Harness h(npes);
    lulesh::Config cfg;
    cfg.ranks_per_dim = 2;
    cfg.elems_per_dim = 6;
    cfg.iterations = 5;
    lulesh::Stats out;
    bool done = false;
    lulesh::run(h.rt, cfg, {}, [&](const lulesh::Stats& s) {
      out = s;
      done = true;
    });
    h.machine.run();
    EXPECT_TRUE(done);
    return out;
  };
  const auto a = run(2);
  const auto b = run(8);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum) << "physics independent of PE count";
  EXPECT_GT(a.halo_messages, 0u);
}

TEST(Lulesh, VirtualizationImprovesCacheBoundRun) {
  // Same 4^3=64-rank job; with 8 PEs each rank's working set is the same, but
  // the modeled cache effect needs the per-rank working set to shrink...
  // Virtualization enters through the config: smaller subdomains per rank at
  // the same total size.  v=1: 2^3 ranks with 16^3 elements each on 8 PEs;
  // v=8: 4^3 ranks with 8^3 elements each on the same 8 PEs.
  auto run = [](int ranks_dim, int elems_dim) {
    Harness h(8);
    lulesh::Config cfg;
    cfg.ranks_per_dim = ranks_dim;
    cfg.elems_per_dim = elems_dim;
    cfg.iterations = 6;
    cfg.migrate_every = 0;
    cfg.bytes_per_elem = 2400;
    lulesh::Stats out;
    ampi::Options opts;
    opts.cache_bytes = 4e6;  // 16^3 * 2400B ~ 9.8MB spills; 8^3 ~ 1.2MB fits
    lulesh::run(h.rt, cfg, opts, [&](const lulesh::Stats& s) { out = s; });
    h.machine.run();
    return out.elapsed;
  };
  const double t_v1 = run(2, 16);
  const double t_v8 = run(4, 8);
  EXPECT_LT(t_v8, t_v1 * 0.85)
      << "8-way virtualization should fit the cache and run faster (Fig 14)";
}

TEST(Lulesh, MigrationFixesRegionImbalance) {
  auto run = [](int migrate_every) {
    Harness h(4);
    lulesh::Config cfg;
    cfg.ranks_per_dim = 2;
    cfg.elems_per_dim = 8;
    cfg.iterations = 12;
    cfg.migrate_every = migrate_every;
    cfg.region_factor = 6.0;
    lulesh::Stats out;
    lulesh::run(h.rt, cfg, {}, [&](const lulesh::Stats& s) { out = s; });
    if (migrate_every > 0) {
      Runtime::current().lb().set_strategy(lb::make_greedy());
      Runtime::current().lb().set_period(2);
    }
    h.machine.run();
    return out.elapsed;
  };
  EXPECT_LT(run(3), run(0));
}

TEST(Lulesh, NonCubicPeCountsWork) {
  // 27 ranks on 5 PEs: virtualization frees the user from cubic core counts.
  Harness h(5);
  lulesh::Config cfg;
  cfg.ranks_per_dim = 3;
  cfg.elems_per_dim = 6;
  cfg.iterations = 4;
  bool done = false;
  lulesh::run(h.rt, cfg, {}, [&](const lulesh::Stats&) { done = true; });
  h.machine.run();
  EXPECT_TRUE(done);
}

}  // namespace
