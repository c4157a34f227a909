// End-to-end host-time benchmark of the charmlike runtime with a per-layer
// split.  Four workloads, each generated from --seed by this one
// single-threaded process:
//
//   phold_direct  PHOLD under YAWNS, point sends      (emulator/runtime-bound)
//   phold_tram    the same model through TRAM         (aggregated delivery)
//   barnes_orb    Barnes-Hut, ORB LB every 2 steps    (kernel-bound)
//   stencil_ft    Jacobi + Refine LB + double in-memory checkpoint, one
//                 fixed-schedule failure with rollback and replay
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 repeats set-up and run until S seconds have passed and prints the
// end-to-end metrics: host times from per-step minima over the repetitions,
// scaled by a calibration kernel to a reference host speed (METRICS.md).
// --trace 1 runs untraced for about S/2 seconds, then once with a
// trace::Tracer attached, and prints the per-layer metrics.  Every run is
// checked: output checks per workload, plus bit-identical virtual makespan
// and counts across repetitions and between traced and untraced runs.  The last stdout line is one JSON object
// {correct, attempted, failed, metrics}; the exit code is 1 when a check fails.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ft/mem_checkpoint.hpp"
#include "harness.hpp"
#include "lb/manager.hpp"
#include "lb/strategy.hpp"
#include "miniapps/barnes/barnes.hpp"
#include "miniapps/pdes/pdes.hpp"
#include "miniapps/stencil/stencil.hpp"
#include "runtime/charm.hpp"
#include "sim/rng.hpp"

namespace {

using namespace charm;
using perfbench::Clock;
using perfbench::seconds_between;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"host_s", "s"},           {"setup_s", "s"},          {"step_host_ms_p50", "ms"},
    {"step_host_ms_p90", "ms"}, {"virt_makespan_ms", "ms"}, {"peak_rss_mb", "MB"},
};

// Named after the src/ modules.  Layers a workload does not use report 0.
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.arrive_host_s", "s"},
    {"sim.pending_events_max", "count"},
    {"sim.event_queue_bytes", "B"},
    {"sim.pe_state_bytes", "B"},
    {"sim.queue_wait_virt_us_p50", "us"},
    {"sim.net_latency_virt_us_p50", "us"},
    {"sim.idle_share", "ratio"},
    {"runtime.messages", "count"},
    {"runtime.bytes", "B"},
    {"runtime.internal_exec_steps", "count"},
    {"runtime.internal_host_s", "s"},
    {"runtime.payload_pool_hit_ratio", "ratio"},
    {"runtime.mem_bytes", "B"},
    {"tram.items", "count"},
    {"tram.batches", "count"},
    {"tram.items_per_batch", "items/batch"},
    {"tram.control_messages", "count"},
    {"lb.rounds", "count"},
    {"lb.strategy_calls", "count"},
    {"lb.assign_host_ms", "ms"},
    {"lb.assign_host_us_p50", "us"},
    {"lb.migrations", "count"},
    {"lb.cost_virt_ms", "ms"},
    {"lb.imbalance_last", "ratio"},
    {"lb.db_dirty_reads", "count"},
    {"lb.db_full_sorts", "count"},
    {"ft.checkpoints", "count"},
    {"ft.checkpoint_host_ms_p50", "ms"},
    {"ft.checkpoint_bytes", "B"},
    {"ft.checkpoint_MBps", "MB/s"},
    {"ft.restore_host_ms", "ms"},
    {"ft.replayed_steps", "count"},
    {"ft.checkpoint_virt_ms", "ms"},
    {"ft.restore_virt_ms", "ms"},
    {"miniapps.entry_host_s", "s"},
    {"miniapps.pdes.recv_event.host_s", "s"},
    {"miniapps.pdes.execute_window.host_s", "s"},
    {"miniapps.barnes.gravity.host_s", "s"},
    {"miniapps.barnes.reply.host_s", "s"},
    {"miniapps.stencil.ghost.host_s", "s"},
    {"miniapps.pairs", "count"},
    {"miniapps.ns_per_pair", "ns"},
    {"miniapps.seq_baseline_host_s", "s"},
    {"miniapps.emulation_overhead_x", "x"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.attributed_share", "ratio"},
};

using Metrics = std::map<std::string, double>;

sim::MachineConfig machine_config(int npes, sim::NetworkParams net) {
  sim::MachineConfig cfg;
  cfg.npes = npes;
  cfg.net = net;
  return cfg;
}

/// Forwards to a real strategy and times every assign() call (lb layer).
class TimedStrategy final : public lb::Strategy {
 public:
  TimedStrategy(std::unique_ptr<lb::Strategy> inner, std::vector<double>* samples)
      : inner_(std::move(inner)), samples_(samples) {}
  std::string name() const override { return inner_->name(); }
  std::vector<lb::Migration> assign(const lb::Stats& stats) override {
    const Clock::time_point t0 = Clock::now();
    std::vector<lb::Migration> out = inner_->assign(stats);
    samples_->push_back(seconds_between(t0, Clock::now()));
    return out;
  }

 private:
  std::unique_ptr<lb::Strategy> inner_;
  std::vector<double>* samples_;
};

void lb_metrics(Runtime& rt, const std::vector<double>& assign_s, Metrics& out) {
  const lb::Manager& mgr = rt.lb();
  int migrations = 0;
  double cost = 0;
  for (const lb::RoundInfo& r : mgr.history()) {
    migrations += r.migrations;
    cost += r.lb_cost;
  }
  double assign_total = 0;
  for (double s : assign_s) assign_total += s;
  out["lb.rounds"] = mgr.rounds_completed();
  out["lb.strategy_calls"] = static_cast<double>(assign_s.size());
  out["lb.assign_host_ms"] = assign_total * 1e3;
  out["lb.assign_host_us_p50"] = perfbench::quantile(assign_s, 0.5) * 1e6;
  out["lb.migrations"] = migrations;
  out["lb.cost_virt_ms"] = cost * 1e3;
  if (!mgr.history().empty()) {
    const lb::RoundInfo& last = mgr.history().back();
    out["lb.imbalance_last"] = last.avg_load > 0 ? last.max_load / last.avg_load : 0.0;
  }
  out["lb.db_dirty_reads"] = static_cast<double>(mgr.db_counters().dirty_flushed);
  out["lb.db_full_sorts"] = static_cast<double>(mgr.db_counters().index_full_sorts);
}

// ---- workloads ------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Once per process, untimed: reference results for the output checks.
  virtual void prepare() {}
  /// Builds a fresh instance (machine, runtime, collections, elements,
  /// strategy, checkpointer) and posts the kick-off: everything before the
  /// first step.  Timed as setup_s.
  virtual void setup() = 0;
  virtual Runtime& runtime() = 0;
  /// Completed application steps (YAWNS windows, Barnes steps, stencil
  /// iterations including replayed ones).
  virtual int steps_done() const = 0;
  /// Output checks on the finished instance; each failure appends a reason.
  virtual void check(std::vector<std::string>& failures) = 0;
  /// Workload counts that must repeat bit for bit.
  virtual void fingerprint(perfbench::Fingerprint& f) = 0;
  /// Per-layer values read from the finished instance.
  virtual void layer_metrics(const perfbench::LayerTrace& lt, Metrics& out) = 0;
  virtual void teardown() = 0;
};

// PHOLD under YAWNS: 32 PEs x 32 LPs/PE, 16 initial events per LP,
// lookahead 0.25 and mean extra delay 1, run to event time 25: about 100
// windows of about 100 events per PE.
class Phold final : public Workload {
 public:
  Phold(bool tram, std::uint64_t seed) : tram_(tram), seed_(seed) {}

  void prepare() override {
    // Reference: the same model and seed on one PE, with point sends.
    pdes::Params ref = params();
    ref.use_tram = false;
    Instance one(1, ref);
    one.start();
    one.m.run();
    if (!one.done) throw std::runtime_error("phold: 1-PE reference run did not finish");
    reference_events_ = one.eng.total_executed();
  }
  void setup() override {
    inst_ = std::make_unique<Instance>(kPes, params());
    inst_->start();
  }
  Runtime& runtime() override { return inst_->rt; }
  int steps_done() const override { return inst_->eng.windows() + (inst_->done ? 1 : 0); }
  void check(std::vector<std::string>& failures) override {
    if (!inst_->done) failures.push_back("phold: run did not finish");
    if (inst_->eng.total_executed() != reference_events_)
      failures.push_back("phold: executed " + std::to_string(inst_->eng.total_executed()) +
                         " events, 1-PE reference executed " +
                         std::to_string(reference_events_));
  }
  void fingerprint(perfbench::Fingerprint& f) override {
    f.add("phold.executed", inst_->eng.total_executed());
    f.add("phold.windows", static_cast<std::uint64_t>(inst_->eng.windows()));
    if (tram_) {
      const tram::Core& c = pdes::Lp::tram_stream->core();
      f.add("tram.items", c.items_inserted());
      f.add("tram.batches", c.batches_sent());
    }
  }
  void layer_metrics(const perfbench::LayerTrace& lt, Metrics& out) override {
    if (tram_) {
      const tram::Core& c = pdes::Lp::tram_stream->core();
      out["tram.items"] = static_cast<double>(c.items_inserted());
      out["tram.batches"] = static_cast<double>(c.batches_sent());
      out["tram.items_per_batch"] = c.aggregation();
      out["tram.control_messages"] = static_cast<double>(c.control_messages());
    }
    out["miniapps.pdes.recv_event.host_s"] =
        lt.entry_host(Registry::entry_of<&pdes::Lp::recv_event>());
    out["miniapps.pdes.execute_window.host_s"] =
        lt.entry_host(Registry::entry_of<&pdes::Lp::execute_window>());
  }
  void teardown() override { inst_.reset(); }

 private:
  static constexpr int kPes = 32;
  static constexpr int kLpsPerPe = 32;
  static constexpr double kEndTime = 25.0;

  struct Instance {
    sim::Machine m;
    Runtime rt;
    pdes::Engine eng;
    bool done = false;
    Instance(int npes, const pdes::Params& p)
        : m(machine_config(npes, sim::NetworkParams::bluegene_q())), rt(m), eng(rt, p) {}
    void start() {
      rt.on_pe(0, [this] {
        eng.run_until(kEndTime, Callback::to_function([this](ReductionResult&&) { done = true; }));
      });
    }
  };

  pdes::Params params() const {
    pdes::Params p;
    p.nlps = kPes * kLpsPerPe;
    p.initial_events_per_lp = 16;
    p.lookahead = 0.25;
    p.use_tram = tram_;
    p.tram_buffer = 64;
    p.seed = sim::derive_seed(seed_, 0x9011);
    return p;
  }

  bool tram_;
  std::uint64_t seed_;
  std::uint64_t reference_events_ = 0;
  std::unique_ptr<Instance> inst_;
};

// Barnes-Hut: 1200 Plummer particles in 216 pieces on 32 PEs, 100 steps of
// dt 1e-4, ORB every 2 steps, Gemini network.  The short step keeps the
// cluster from collapsing within the run, which would make the message count
// depend on the seed far more.
class Barnes final : public Workload {
 public:
  explicit Barnes(std::uint64_t seed) : seed_(seed) {}

  void prepare() override {
    Instance fresh(params());
    initial_bodies_ = fresh.sim.total_bodies();
    initial_momentum_ = fresh.sim.total_momentum();
  }
  void setup() override {
    inst_ = std::make_unique<Instance>(params());
    inst_->start();
  }
  Runtime& runtime() override { return inst_->rt; }
  int steps_done() const override { return static_cast<int>(inst_->sim.phase_times().size()); }
  void check(std::vector<std::string>& failures) override {
    if (!inst_->done) failures.push_back("barnes: run did not finish");
    const std::size_t n = inst_->sim.total_bodies();
    if (initial_bodies_ != static_cast<std::size_t>(kParticles) || n != initial_bodies_)
      failures.push_back("barnes: body count " + std::to_string(initial_bodies_) + " -> " +
                         std::to_string(n));
    const double drift = momentum_drift();
    if (!(drift <= kMaxMomentumDrift)) {
      char msg[96];
      std::snprintf(msg, sizeof msg, "barnes: momentum drift %.3g > %.3g", drift,
                    kMaxMomentumDrift);
      failures.push_back(msg);
    }
  }
  void fingerprint(perfbench::Fingerprint& f) override {
    f.add("barnes.pairs", pairs());
    f.add("barnes.momentum_drift", momentum_drift());
    f.add("lb.rounds", static_cast<std::uint64_t>(inst_->rt.lb().rounds_completed()));
  }
  void layer_metrics(const perfbench::LayerTrace& lt, Metrics& out) override {
    const double gravity = lt.entry_host(Registry::entry_of<&barnes::Piece::gravity>());
    const double reply = lt.entry_host(Registry::entry_of<&barnes::Piece::reply>());
    out["miniapps.barnes.gravity.host_s"] = gravity;
    out["miniapps.barnes.reply.host_s"] = reply;
    out["miniapps.pairs"] = static_cast<double>(pairs());
    out["miniapps.ns_per_pair"] = (gravity + reply) / static_cast<double>(pairs()) * 1e9;
    lb_metrics(inst_->rt, inst_->assign_s, out);
  }
  void teardown() override { inst_.reset(); }

 private:
  static constexpr int kPes = 32;
  static constexpr int kParticles = 1200;
  static constexpr int kSteps = 100;
  /// Bound on |p_end - p_start| over the run (total mass 1).  The monopole
  /// far field is not pairwise symmetric, so momentum is conserved only
  /// approximately: seeds 1-10 drift by 8e-7 to 7e-6, against an initial
  /// |p| of about 1e-4.
  static constexpr double kMaxMomentumDrift = 1e-4;

  struct Instance {
    sim::Machine m;
    Runtime rt;
    barnes::Simulation sim;
    std::vector<double> assign_s;
    bool done = false;
    explicit Instance(const barnes::Params& p)
        : m(machine_config(kPes, sim::NetworkParams::cray_gemini())), rt(m), sim(rt, p) {}
    void start() {
      rt.lb().set_strategy(std::make_unique<TimedStrategy>(lb::make_orb(), &assign_s));
      rt.lb().set_period(2);
      rt.on_pe(0, [this] {
        sim.run(kSteps, Callback::to_function([this](ReductionResult&&) { done = true; }));
      });
    }
  };

  barnes::Params params() const {
    barnes::Params p;
    p.pieces_per_dim = 6;
    p.nparticles = kParticles;
    p.concentration = 0.8;
    p.dt = 1e-4;
    p.seed = sim::derive_seed(seed_, 0xba41);
    return p;
  }

  std::uint64_t pairs() const {
    std::uint64_t n = 0;
    Collection& c = inst_->rt.collection(inst_->sim.pieces().id());
    for (int pe = 0; pe < inst_->rt.npes(); ++pe)
      if (PeLocal* pl = c.local_if(pe))
        for (auto& [ix, obj] : pl->elems) n += static_cast<barnes::Piece*>(obj.get())->direct_pairs();
    return n;
  }

  double momentum_drift() const {
    const std::array<double, 3> p = inst_->sim.total_momentum();
    const double dx = p[0] - initial_momentum_[0], dy = p[1] - initial_momentum_[1],
                 dz = p[2] - initial_momentum_[2];
    return std::sqrt(dx * dx + dy * dy + dz * dz);
  }

  std::uint64_t seed_;
  std::size_t initial_bodies_ = 0;
  std::array<double, 3> initial_momentum_{};
  std::unique_ptr<Instance> inst_;
};

// Stencil2D: 512^2 Jacobi in 16x16 tiles of 32^2 cells on 64 PEs with an
// x-gradient imbalance, Refine LB every 5 iterations, a double in-memory
// checkpoint every 10 iterations, and one failure of a seed-chosen PE at a
// seed-chosen iteration, rolled back and replayed.
class StencilFt final : public Workload {
 public:
  explicit StencilFt(std::uint64_t seed) {
    sim::Rng rng(sim::derive_seed(seed, 0x57e4));
    victim_ = static_cast<int>(rng.next_below(kPes));
    // Fail at the 7th iteration after a checkpoint, so every seed replays
    // the same number of iterations.
    fail_step_ = kCkptPeriod * (1 + static_cast<int>(rng.next_below(kIters / kCkptPeriod - 1))) +
                 kFailOffset;
  }

  void prepare() override {
    const Clock::time_point t0 = Clock::now();
    reference_ = sequential_jacobi();
    seq_host_s_ = seconds_between(t0, Clock::now());
  }
  void setup() override {
    inst_ = std::make_unique<Instance>(victim_, fail_step_);
    inst_->start();
  }
  Runtime& runtime() override { return inst_->rt; }
  int steps_done() const override { return inst_->boundaries; }
  void check(std::vector<std::string>& failures) override {
    if (!inst_->finished) failures.push_back("stencil: run did not finish");
    if (inst_->ckpt.recoveries_completed() != 1)
      failures.push_back("stencil: expected exactly one recovery");
    const std::vector<double> got = tile_residuals();
    std::size_t bad = 0;
    for (std::size_t i = 0; i < reference_.size(); ++i)
      if (i >= got.size() || std::bit_cast<std::uint64_t>(got[i]) !=
                                 std::bit_cast<std::uint64_t>(reference_[i]))
        ++bad;
    if (bad != 0 || got.size() != reference_.size())
      failures.push_back("stencil: " + std::to_string(bad) +
                         " tile residuals differ from the sequential Jacobi");
  }
  void fingerprint(perfbench::Fingerprint& f) override {
    f.add("stencil.boundaries", static_cast<std::uint64_t>(inst_->boundaries));
    f.add("ft.checkpoint_bytes", inst_->ckpt.checkpoint_bytes());
    f.add("ft.checkpoint_virt", inst_->ckpt_virt_s);
    f.add("ft.restore_virt", inst_->restore_virt_s);
    f.add("lb.rounds", static_cast<std::uint64_t>(inst_->rt.lb().rounds_completed()));
    int migrations = 0;
    for (const lb::RoundInfo& r : inst_->rt.lb().history()) migrations += r.migrations;
    f.add("lb.migrations", static_cast<std::uint64_t>(migrations));
  }
  void layer_metrics(const perfbench::LayerTrace& lt, Metrics& out) override {
    const Instance& in = *inst_;
    double ckpt_total = 0;
    for (double s : in.ckpt_host_s) ckpt_total += s;
    out["ft.checkpoints"] = in.ckpt.checkpoints_taken();
    out["ft.checkpoint_host_ms_p50"] = perfbench::quantile(in.ckpt_host_s, 0.5) * 1e3;
    out["ft.checkpoint_bytes"] = static_cast<double>(in.ckpt.checkpoint_bytes());
    out["ft.checkpoint_MBps"] = static_cast<double>(in.ckpt.checkpoint_bytes()) *
                                static_cast<double>(in.ckpt_host_s.size()) / ckpt_total / 1e6;
    out["ft.restore_host_ms"] = in.restore_host_s * 1e3;
    out["ft.replayed_steps"] = in.replayed;
    out["ft.checkpoint_virt_ms"] = in.ckpt_virt_s * 1e3;
    out["ft.restore_virt_ms"] = in.restore_virt_s * 1e3;
    out["miniapps.stencil.ghost.host_s"] =
        lt.entry_host(Registry::entry_of<&stencil::Tile::ghost>());
    out["miniapps.seq_baseline_host_s"] = seq_host_s_;
    lb_metrics(inst_->rt, inst_->assign_s, out);
  }
  void teardown() override { inst_.reset(); }

 private:
  static constexpr int kPes = 64;
  static constexpr int kGrid = 512;
  static constexpr int kTiles = 16;  ///< per dimension
  static constexpr int kIters = 100;
  static constexpr int kLbPeriod = 5;
  static constexpr int kCkptPeriod = 10;
  static constexpr int kFailOffset = 7;

  static stencil::Params params() {
    stencil::Params p;
    p.grid = kGrid;
    p.tiles_x = p.tiles_y = kTiles;
    p.imbalance = 2.0;
    return p;
  }

  // Resilient stepping on the benchmark side: steps are globally quiescent
  // iterations; a checkpoint follows every kCkptPeriod-th; the failure hits
  // at the end of iteration fail_step (before it is acknowledged), after
  // which every chare is back at the last checkpoint and the steps since it
  // are replayed.
  struct Instance {
    sim::Machine m;
    Runtime rt;
    stencil::Sim sim;
    ft::MemCheckpointer ckpt;
    std::vector<double> assign_s;
    int victim, fail_step;
    int step = 0;         ///< last acknowledged iteration
    int last_ckpt = 0;    ///< iteration of the last committed checkpoint
    int boundaries = 0;   ///< iterations completed, replays included
    int replayed = 0;
    bool failed = false, finished = false;
    std::vector<double> ckpt_host_s;
    double ckpt_virt_s = 0, restore_host_s = 0, restore_virt_s = 0;

    Instance(int victim_pe, int fail_at)
        : m(machine_config(kPes, sim::NetworkParams::bluegene_q())),
          rt(m),
          sim(rt, params()),
          ckpt(rt),
          victim(victim_pe),
          fail_step(fail_at) {}

    void start() {
      rt.lb().set_strategy(std::make_unique<TimedStrategy>(lb::make_refine(), &assign_s));
      rt.lb().set_period(kLbPeriod);
      rt.on_pe(0, [this] { checkpoint(); });
    }
    void checkpoint() {
      const Clock::time_point h0 = Clock::now();
      const double v0 = rt.now();
      ckpt.checkpoint(Callback::to_function([this, h0, v0](ReductionResult&&) {
        ckpt_host_s.push_back(seconds_between(h0, Clock::now()));
        ckpt_virt_s += rt.now() - v0;
        last_ckpt = step;
        advance();
      }));
    }
    void advance() {
      if (step >= kIters) {
        finished = true;
        return;
      }
      const int s = step + 1;
      // Every iteration, first run or replay, is issued from PE 0.
      rt.on_pe(0, [this, s] {
        sim.run(1, Callback::to_function([this, s](ReductionResult&&) { boundary(s); }));
      });
    }
    void boundary(int s) {
      ++boundaries;
      if (!failed && s == fail_step) {
        failed = true;
        const Clock::time_point h0 = Clock::now();
        const double v0 = rt.now();
        ckpt.fail_and_recover(victim, Callback::to_function([this, h0, v0, s](ReductionResult&&) {
          restore_host_s = seconds_between(h0, Clock::now());
          restore_virt_s = rt.now() - v0;
          replayed = s - last_ckpt;
          step = last_ckpt;
          advance();
        }));
        return;
      }
      step = s;
      if (s % kCkptPeriod == 0 && s < kIters) {
        checkpoint();
      } else {
        advance();
      }
    }
  };

  /// Plain single-threaded Jacobi of the same grid and boundary conditions;
  /// returns the last sweep's squared-update sum per tile in tile-index order
  /// (x-major), summed in the same cell order as stencil::Tile::sweep.
  static std::vector<double> sequential_jacobi() {
    const int n = kGrid, tw = kGrid / kTiles;
    std::vector<double> u(static_cast<std::size_t>(n) * n, 0.0), un(u.size());
    auto at = [n](std::vector<double>& v, int i, int j) -> double& {
      return v[static_cast<std::size_t>(j) * n + i];
    };
    for (int j = 0; j < n; ++j) at(u, 0, j) = 1.0;
    std::vector<double> delta(static_cast<std::size_t>(kTiles) * kTiles, 0.0);
    for (int it = 0; it < kIters; ++it) {
      for (int tx = 0; tx < kTiles; ++tx) {
        for (int ty = 0; ty < kTiles; ++ty) {
          double d2 = 0;
          for (int j = ty * tw; j < (ty + 1) * tw; ++j) {
            for (int i = tx * tw; i < (tx + 1) * tw; ++i) {
              if (i == 0) {
                at(un, i, j) = at(u, i, j);
                continue;
              }
              const double c = at(u, i, j);
              const double left = at(u, i - 1, j);
              const double right = i < n - 1 ? at(u, i + 1, j) : c;
              const double down = j > 0 ? at(u, i, j - 1) : c;
              const double up = j < n - 1 ? at(u, i, j + 1) : c;
              const double v = 0.25 * (left + right + down + up);
              const double d = v - c;
              d2 += d * d;
              at(un, i, j) = v;
            }
          }
          delta[static_cast<std::size_t>(tx) * kTiles + ty] = d2;
        }
      }
      std::swap(u, un);
    }
    return delta;
  }

  std::vector<double> tile_residuals() const {
    std::vector<double> out(static_cast<std::size_t>(kTiles) * kTiles, std::nan(""));
    Collection& c = inst_->rt.collection(inst_->sim.tiles().id());
    for (int pe = 0; pe < inst_->rt.npes(); ++pe) {
      PeLocal* pl = c.local_if(pe);
      if (pl == nullptr) continue;
      for (auto& [ix, obj] : pl->elems) {
        const Index2D t = static_cast<stencil::Tile*>(obj.get())->index();
        out[static_cast<std::size_t>(t.x) * kTiles + t.y] =
            static_cast<stencil::Tile*>(obj.get())->last_delta();
      }
    }
    return out;
  }

  int victim_ = 0;
  int fail_step_ = 0;
  std::vector<double> reference_;
  double seq_host_s_ = 0;
  std::unique_ptr<Instance> inst_;
};

// ---- one run of a workload --------------------------------------------------------

struct RunResult {
  double setup_s = 0;
  perfbench::Timing timing;
  int steps = 0;
  std::vector<std::string> failures;
  perfbench::Fingerprint fp;
  double makespan_ms = 0;
};

RunResult run_once(Workload& w, trace::Tracer* tr, perfbench::LayerTrace* lt,
                   Metrics* layer_out) {
  RunResult r;
  const Clock::time_point t0 = Clock::now();
  w.setup();
  r.setup_s = seconds_between(t0, Clock::now());
  Runtime& rt = w.runtime();
  sim::Machine& m = rt.machine();
  r.timing = perfbench::drive(m, [&w] { return w.steps_done(); }, tr, lt);
  r.steps = w.steps_done();
  w.check(r.failures);
  r.makespan_ms = m.max_pe_clock() * 1e3;
  r.fp.add("virt_makespan", m.max_pe_clock());
  r.fp.add("sim.events", m.events_processed());
  r.fp.add("runtime.messages", rt.messages_sent());
  r.fp.add("runtime.bytes", rt.bytes_sent());
  r.fp.add("steps", static_cast<std::uint64_t>(r.timing.step_ms.size()));
  w.fingerprint(r.fp);
  if (layer_out != nullptr) {
    Metrics& out = *layer_out;
    const PayloadPool& pool = rt.payload_pool();
    const double lookups = static_cast<double>(pool.hits() + pool.misses());
    out["sim.events"] = static_cast<double>(m.events_processed());
    out["sim.pe_state_bytes"] = static_cast<double>(m.pe_state_bytes());
    out["sim.idle_share"] = lt->idle_virt / (m.max_pe_clock() * m.npes());
    out["runtime.messages"] = static_cast<double>(rt.messages_sent());
    out["runtime.bytes"] = static_cast<double>(rt.bytes_sent());
    out["runtime.payload_pool_hit_ratio"] =
        lookups > 0 ? static_cast<double>(pool.hits()) / lookups : 0.0;
    out["runtime.mem_bytes"] = static_cast<double>(rt.memory_footprint().total());
    w.layer_metrics(*lt, out);
  }
  w.teardown();
  return r;
}

double median(const std::vector<double>& v) { return perfbench::quantile(v, 0.5); }

/// Peak RSS of this process image, from /proc/self/status VmHWM.
/// getrusage's ru_maxrss is not used: Linux carries it across execve, so it
/// would report the launching process's RSS whenever that is larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kib / 1024.0;
}

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "phold_direct") return std::make_unique<Phold>(false, seed);
  if (name == "phold_tram") return std::make_unique<Phold>(true, seed);
  if (name == "barnes_orb") return std::make_unique<Barnes>(seed);
  if (name == "stencil_ft") return std::make_unique<StencilFt>(seed);
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload phold_direct|phold_tram|barnes_orb|stencil_ft "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      traced = std::string_view(v) == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(seconds > 0)) return usage();
  std::unique_ptr<Workload> w = make_workload(workload, seed);
  if (!w) return usage();

  // Fewest untraced runs per invocation, the warm-up run included.
  constexpr int kMinRuns = 4;
  // Extra set-up samples taken before every run (set up, then tear down).
  constexpr int kExtraSetups = 2;
  // Calibration kernel calls before every run, and the kernel's least time on
  // the host the benchmark was tuned on (Intel Xeon, 4 vCPUs) in a quiet
  // moment.  Host-time metrics are scaled by kRefCalibrationS / (least
  // calibration time of this run): seconds as they would read on that host at
  // that speed.  The shared host's speed drifts by tens of percent over
  // minutes; the scaling removes most of that drift and keeps the program's
  // own cost.
  constexpr int kCalibrationsPerRun = 3;
  constexpr double kRefCalibrationS = 2.0e-3;

  w->prepare();
  const Clock::time_point begin = Clock::now();
  auto elapsed = [&] { return seconds_between(begin, Clock::now()); };

  std::vector<RunResult> runs;
  std::vector<double> setup, calibration;
  const double untraced_budget = traced ? seconds / 2 : seconds;
  while (runs.size() < static_cast<std::size_t>(traced ? 2 : kMinRuns) ||
         elapsed() < untraced_budget) {
    for (int i = 0; i < kCalibrationsPerRun; ++i)
      calibration.push_back(perfbench::calibration_kernel_s());
    for (int i = 0; i < kExtraSetups && !runs.empty(); ++i) {
      const Clock::time_point t0 = Clock::now();
      w->setup();
      setup.push_back(seconds_between(t0, Clock::now()));
      w->teardown();
    }
    runs.push_back(run_once(*w, nullptr, nullptr, nullptr));
    if (runs.size() > 1) setup.push_back(runs.back().setup_s);
  }

  perfbench::LayerTrace lt;
  Metrics layers;
  if (traced) {
    trace::Tracer tr;
    runs.push_back(run_once(*w, &tr, &lt, &layers));
  }

  std::vector<std::string> failures;
  int attempted = 0, failed = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    attempted += r.steps;
    std::vector<std::string> why = r.failures;
    const std::string d = r.fp.diff(runs.front().fp);
    if (!d.empty())
      why.push_back("run " + std::to_string(i) + " differs from run 0 in: " + d);
    if (!why.empty()) failed += r.steps;
    failures.insert(failures.end(), why.begin(), why.end());
  }

  // Host-time estimator.  The run is deterministic, so every repetition
  // executes the same application steps; a step's cost is its least host
  // time over the timed repetitions (all untraced runs after the first,
  // which warms the allocator and caches and is only checked).  Host noise
  // on a shared machine only ever adds time, and it comes in phases of a
  // fraction of a second, so per-step minima over repetitions spread over
  // the run are far steadier than any per-run median.  host_s is the sum of
  // the step minima plus the least drain tail; the step percentiles are taken
  // over the step minima.
  const std::size_t untraced = traced ? runs.size() - 1 : runs.size();
  std::vector<const perfbench::Timing*> timed;
  for (std::size_t i = untraced > 1 ? 1 : 0; i < untraced; ++i) timed.push_back(&runs[i].timing);
  const perfbench::Timing best = perfbench::best_of(timed);
  std::vector<double> run_host;
  for (const perfbench::Timing* t : timed) run_host.push_back(t->host_s);
  const double calibration_s = *std::min_element(calibration.begin(), calibration.end());
  const double speed_scale = kRefCalibrationS / calibration_s;

  Metrics values;
  std::vector<MetricDef> report;
  if (!traced) {
    values["host_s"] = best.host_s * speed_scale;
    values["setup_s"] = median(setup) * speed_scale;
    values["step_host_ms_p50"] = perfbench::quantile(best.step_ms, 0.5) * speed_scale;
    values["step_host_ms_p90"] = perfbench::quantile(best.step_ms, 0.9) * speed_scale;
    values["virt_makespan_ms"] = runs.front().makespan_ms;
    values["peak_rss_mb"] = peak_rss_mb();
    report.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  } else {
    const perfbench::Timing& t = runs.back().timing;
    layers["sim.ns_per_event"] = best.host_s / layers["sim.events"] * 1e9;
    layers["sim.arrive_host_s"] = lt.arrive_host_s;
    layers["sim.pending_events_max"] = static_cast<double>(lt.pending_events_max);
    layers["sim.event_queue_bytes"] = static_cast<double>(lt.event_queue_bytes_max);
    layers["sim.queue_wait_virt_us_p50"] = perfbench::quantile(lt.queue_wait_virt, 0.5) * 1e6;
    layers["sim.net_latency_virt_us_p50"] = perfbench::quantile(lt.net_latency_virt, 0.5) * 1e6;
    layers["runtime.internal_exec_steps"] = static_cast<double>(lt.internal_steps);
    layers["runtime.internal_host_s"] = lt.internal_host_s;
    layers["miniapps.entry_host_s"] = lt.entry_host_s;
    if (layers["miniapps.seq_baseline_host_s"] > 0)
      layers["miniapps.emulation_overhead_x"] =
          best.host_s / layers["miniapps.seq_baseline_host_s"];
    // The traced run is a single repetition, so compare it with the median
    // untraced repetition, not with the best-of estimator.
    layers["trace.overhead_ratio"] = t.host_s / median(run_host);
    layers["trace.attributed_share"] = lt.step_span_s / t.host_s;
    values = layers;
    report.assign(std::begin(kPerLayer), std::end(kPerLayer));
  }

  for (const auto& [name, v] : values) {
    bool known = false;
    for (const MetricDef& d : report) known = known || name == d.name;
    if (!known) failures.push_back("metric not in the table: " + name);
    if (!std::isfinite(v)) failures.push_back("metric not finite: " + name);
  }

  std::printf(
      "workload %s seed %llu: %zu timed runs of %zu steps; unscaled host s: median run %.4f, "
      "best-of %.4f; calibration %.4f ms, speed scale %.4f\n",
      workload.c_str(), static_cast<unsigned long long>(seed), timed.size(), best.step_ms.size(),
      median(run_host), best.host_s, calibration_s * 1e3, speed_scale);
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[160];
  for (std::size_t i = 0; i < report.size(); ++i) {
    const double v = values.count(report[i].name) ? values[report[i].name] : 0.0;
    std::printf("  %-40s %.9g %s\n", report[i].name, v, report[i].unit);
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", report[i].name, std::isfinite(v) ? v : -1.0, report[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failures.empty() ? 0 : 1;
}
