// Tracing subsystem tests: event recording against a hand-computed ping-pong,
// time-profile bin accounting, Chrome export shape, and —
// most importantly — that tracing never perturbs the simulation (results are
// bit-identical with tracing on, off, or absent).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "runtime/charm.hpp"
#include "stats/report.hpp"
#include "trace/chrome_export.hpp"
#include "trace/trace.hpp"

#include "test_util.hpp"

namespace {

using namespace charm;

struct PingMsg {
  int value = 0;
  void pup(pup::Er& p) { p | value; }
};

class Ponger : public charm::ArrayElement<Ponger, std::int32_t> {
 public:
  int received = 0;
  void recv(const PingMsg& m) {
    ++received;
    charge(2e-6);
    if (m.value > 0) {
      ArrayProxy<Ponger> peers(collection_id());
      peers[1 - index()].send<&Ponger::recv>(PingMsg{m.value - 1});
    }
  }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | received;
  }
};

using charmtest::Harness;

// Runs a 2-PE ping-pong with `hops` total entry invocations.
void run_pingpong(Harness& h, trace::Tracer* tracer, int hops) {
  if (tracer) h.machine.set_tracer(tracer);
  auto arr = ArrayProxy<Ponger>::create(h.rt);
  arr.seed(0, 0);
  arr.seed(1, 1);
  h.rt.on_pe(0, [&] { arr[0].send<&Ponger::recv>(PingMsg{hops - 1}); });
  h.machine.run();
}

std::size_t count_kind(const trace::Tracer& t, trace::Kind k) {
  return static_cast<std::size_t>(
      std::count_if(t.events().begin(), t.events().end(),
                    [k](const trace::Event& e) { return e.kind == k; }));
}

// ---- event recording ---------------------------------------------------------

TEST(Trace, PingPongEntryCountsAndOrdering) {
  Harness h(2);
  trace::Tracer tracer;
  run_pingpong(h, &tracer, 10);

  // Exactly one kEntry per entry-method invocation: the initial send plus the
  // nine relays.  Nothing else in the run (seeding, on_pe bootstrap, control
  // traffic) is an entry method.
  EXPECT_EQ(count_kind(tracer, trace::Kind::kEntry), 10u);

  // Every handler execution is bracketed: recv (queueing) before, exec after.
  EXPECT_EQ(count_kind(tracer, trace::Kind::kExec), count_kind(tracer, trace::Kind::kRecv));
  EXPECT_GE(count_kind(tracer, trace::Kind::kExec), 10u);

  // Events carry sane virtual-time spans and alternate between the two PEs.
  int expected_pe = 0;
  for (const auto& e : tracer.events()) {
    EXPECT_LE(e.begin, e.end);
    if (e.kind == trace::Kind::kEntry) {
      EXPECT_EQ(e.pe, expected_pe);
      expected_pe = 1 - expected_pe;
      // The span covers the 2us the method charged, plus (for all but the
      // final hop) the send overhead the method's own relay charged.
      EXPECT_GE(e.end - e.begin, 2e-6 - 1e-12);
      EXPECT_LE(e.end - e.begin, 2e-6 + 2e-6);
    }
  }

  // Each entry span nests inside the exec span recorded right after it.
  const auto& ev = tracer.events();
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].kind != trace::Kind::kEntry) continue;
    ASSERT_LT(i + 1, ev.size());
    EXPECT_EQ(ev[i + 1].kind, trace::Kind::kExec);
    EXPECT_EQ(ev[i + 1].pe, ev[i].pe);
    EXPECT_LE(ev[i + 1].begin, ev[i].begin);
    EXPECT_GE(ev[i + 1].end, ev[i].end);
  }
}

TEST(Trace, SendEventsCarryLatencyAndDestination) {
  Harness h(2);
  trace::Tracer tracer;
  run_pingpong(h, &tracer, 8);

  std::size_t cross = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind != trace::Kind::kSend) continue;
    EXPECT_GE(e.a, 0);
    EXPECT_LT(e.a, 2);
    EXPECT_LE(e.begin, e.end);
    if (e.pe != e.a) {
      ++cross;
      EXPECT_GT(e.end, e.begin) << "cross-PE messages have network latency";
      EXPECT_GT(e.bytes, 0u);
    }
  }
  // At least the 7 relay hops cross between the PEs.
  EXPECT_GE(cross, 7u);
}

// ---- neutrality: tracing must not change the simulation ----------------------

TEST(Trace, ResultsBitIdenticalWithTracingOnOffAbsent) {
  struct Result {
    double clock = 0;
    double busy[2] = {0, 0};
    std::uint64_t executed[2] = {0, 0};
  };
  // Only one Runtime may exist at a time, so each run is scoped.
  auto measure = [](trace::Tracer* tracer) {
    Harness h(2);
    run_pingpong(h, tracer, 50);
    Result r;
    r.clock = h.machine.max_pe_clock();
    for (int pe = 0; pe < 2; ++pe) {
      r.busy[pe] = h.machine.pe(pe).busy_time();
      r.executed[pe] = h.machine.pe(pe).executed();
    }
    return r;
  };

  const Result plain = measure(nullptr);

  trace::Tracer on;
  const Result traced = measure(&on);
  EXPECT_GT(on.size(), 0u);

  trace::Tracer off;
  off.set_enabled(false);
  const Result disabled = measure(&off);
  EXPECT_EQ(off.size(), 0u) << "a disabled tracer records nothing";

  for (const Result* r : {&traced, &disabled}) {
    EXPECT_EQ(r->clock, plain.clock);
    for (int pe = 0; pe < 2; ++pe) {
      EXPECT_EQ(r->busy[pe], plain.busy[pe]);
      EXPECT_EQ(r->executed[pe], plain.executed[pe]);
    }
  }
}

TEST(Trace, BoundedTracerDropsAndCounts) {
  trace::Tracer t(/*reserve_events=*/4, /*max_events=*/8);
  for (int i = 0; i < 20; ++i) t.idle(0, i, i + 1);
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.dropped(), 12u);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

// ---- time profile ------------------------------------------------------------

TEST(TimeProfile, HandComputedBins) {
  // One exec span [0,1] on PE0 with an entry method covering [0.25,0.75].
  trace::Tracer t;
  t.exec(0, 0.0, 1.0, 0);
  t.entry(0, 0, 0, 0.25, 0.75);
  const std::vector<stats::ProfileBin> prof = stats::time_profile(t.events(), /*npes=*/1,
                                                                  /*nbins=*/4);

  ASSERT_EQ(prof.size(), 4u);
  const double kBusy[4] = {0.0, 1.0, 1.0, 0.0};
  for (int b = 0; b < 4; ++b) {
    const stats::ProfileBin& bin = prof[static_cast<std::size_t>(b)];
    EXPECT_DOUBLE_EQ(bin.t0, 0.25 * b) << "bin " << b;
    EXPECT_DOUBLE_EQ(bin.t1 - bin.t0, 0.25) << "bin " << b;
    EXPECT_NEAR(bin.busy, kBusy[b], 1e-12) << "bin " << b;
    EXPECT_NEAR(bin.overhead, 1.0 - kBusy[b], 1e-12) << "bin " << b;
    EXPECT_NEAR(bin.idle, 0.0, 1e-12) << "bin " << b;
  }
}

TEST(TimeProfile, BinsSumToOneAndMatchPeBusyTime) {
  Harness h(2);
  trace::Tracer tracer;
  run_pingpong(h, &tracer, 40);

  const int nbins = 16;
  auto check = [&](const std::vector<trace::Event>& events, int npes, double exec_expected) {
    const std::vector<stats::ProfileBin> prof = stats::time_profile(events, npes, nbins);
    ASSERT_EQ(prof.size(), static_cast<std::size_t>(nbins));
    double exec_seconds = 0;
    for (int b = 0; b < nbins; ++b) {
      const stats::ProfileBin& bin = prof[static_cast<std::size_t>(b)];
      ASSERT_GT(bin.t1, bin.t0);
      EXPECT_NEAR(bin.busy + bin.overhead + bin.idle, 1.0, 1e-9) << "bin " << b;
      EXPECT_GE(bin.busy, 0.0);
      EXPECT_GE(bin.overhead, 0.0);
      EXPECT_GE(bin.idle, 0.0);
      exec_seconds += (bin.busy + bin.overhead) * (bin.t1 - bin.t0) * npes;
    }
    // busy+overhead integrates back to the measured execution time.
    EXPECT_NEAR(exec_seconds, exec_expected, 1e-9);
  };
  // Each PE alone (its events relabelled as PE 0), then the two-PE mean.
  for (int pe = 0; pe < 2; ++pe) {
    SCOPED_TRACE(pe);
    std::vector<trace::Event> own;
    for (trace::Event e : tracer.events())
      if (e.pe == pe) {
        e.pe = 0;
        own.push_back(e);
      }
    check(own, 1, h.machine.pe(pe).busy_time());
  }
  check(tracer.events(), 2, h.machine.pe(0).busy_time() + h.machine.pe(1).busy_time());
}

// ---- Chrome export -----------------------------------------------------------

TEST(ChromeExport, EmitsWellFormedEventStream) {
  trace::Tracer t;
  t.exec(0, 0.0, 1e-3, 128);
  t.entry(0, 2, 5, 1e-4, 9e-4);
  t.send(0, 1, 64, 1, 2e-4, 5e-4);
  t.recv(1, 0, 64, 5e-4, 6e-4);
  t.idle(1, 0.0, 5e-4);
  t.phase_span(trace::Phase::kLbStep, 0, 0.0, 1e-3, 3);

  std::ostringstream os;
  trace::write_chrome_trace(t.events(), os,
                            [](int col, int ep) {
                              return "c" + std::to_string(col) + ".e" + std::to_string(ep);
                            });
  const std::string j = os.str();

  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"c2.e5\""), std::string::npos) << "labeler applied";
  EXPECT_NE(j.find("\"ph\":\"s\""), std::string::npos) << "flow start for the send";
  EXPECT_NE(j.find("\"ph\":\"f\""), std::string::npos) << "flow finish for the send";
  EXPECT_NE(j.find("\"lb_step\""), std::string::npos);
  // Braces and brackets balance — a cheap structural sanity check.
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'), std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(std::count(j.begin(), j.end(), '['), std::count(j.begin(), j.end(), ']'));
  EXPECT_EQ(j.find(",]"), std::string::npos) << "no trailing commas";

  const char* path = "test_trace_chrome_out.json";
  EXPECT_TRUE(trace::write_chrome_trace_file(t.events(), path, nullptr));
  std::remove(path);
}

// ---- runtime phase spans -----------------------------------------------------

struct IterMsg {
  int remaining = 0;
  void pup(pup::Er& p) { p | remaining; }
};

class SyncWorker : public charm::ArrayElement<SyncWorker, std::int32_t> {
 public:
  int pending = 0;
  void step(const IterMsg& m) {
    pending = m.remaining;
    charm::charge(1e-3);
    at_sync();
  }
  void resume_from_sync() override {
    if (pending > 0) {
      charm::ArrayProxy<SyncWorker> self(collection_id());
      self[index()].send<&SyncWorker::step>(IterMsg{pending - 1});
    }
  }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | pending;
  }
};

TEST(Trace, LbStepPhaseSpansRecorded) {
  Harness h(4);
  trace::Tracer tracer;
  h.machine.set_tracer(&tracer);
  auto arr = ArrayProxy<SyncWorker>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
  h.rt.lb().register_collection(arr.id());
  h.rt.lb().set_strategy(lb::make_greedy());
  h.rt.lb().set_period(2);
  h.rt.on_pe(0, [&] { arr.broadcast<&SyncWorker::step>(IterMsg{4}); });
  h.machine.run();

  std::size_t phases = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind != trace::Kind::kPhase) continue;
    EXPECT_EQ(e.phase, trace::Phase::kLbStep);
    EXPECT_LE(e.begin, e.end);
    ++phases;
  }
  // One phase span per completed AtSync round.
  EXPECT_EQ(phases, static_cast<std::size_t>(h.rt.lb().rounds_completed()));
}

// ---- quarantine disposal stays out of the trace ------------------------------

// Disposal of messages addressed to a failed PE runs their handlers in a
// zero-cost quarantine context so side effects (completion counters, refcount
// drops) still happen — but those executions are not real work and must not
// appear in the trace: no exec/busy time on the dead PE, and no sends
// attributed to it.

TEST(Trace, QuarantineDisposalRecordsNothing) {
  sim::Machine m(sim::MachineConfig{2, {}, 4});
  trace::Tracer tracer;
  m.set_tracer(&tracer);

  m.post(1, 0.0, [&m] {
    m.charge(1e-3);
    m.send(0, 64, 0, [] {});
  });
  m.fail_pe(1);  // quarantine before delivery: the message is disposed
  m.run();

  EXPECT_EQ(m.messages_dropped(), 1u);
  EXPECT_TRUE(tracer.enabled()) << "suppression must be restored after disposal";

  const stats::Report r = stats::collect(tracer, 2);
  EXPECT_EQ(r.pes[1].execs, 0u) << "disposed handler must not count as an execution";
  EXPECT_EQ(r.pes[1].exec, 0.0);
  EXPECT_EQ(r.pes[1].busy, 0.0);
  EXPECT_EQ(count_kind(tracer, trace::Kind::kSend), 0u)
      << "sends made during disposal must not be traced";
}

TEST(Trace, QuarantineDrainOfReadyQueueRecordsNothing) {
  sim::Machine m(sim::MachineConfig{2, {}, 4});
  trace::Tracer tracer;
  m.set_tracer(&tracer);

  // First message executes normally for 1s; the second arrives while PE 1 is
  // still busy and is waiting in the ready queue when PE 0 kills PE 1 at 0.5,
  // so it is disposed by the quarantine drain instead of executing.
  m.post(1, 0.0, [&m] { m.charge(1.0); });
  m.post(1, 0.1, [&m] {
    m.charge(5.0);
    m.send(0, 32, 0, [] {});
  });
  m.post(0, 0.5, [&m] { m.fail_pe(1); });
  m.run();

  EXPECT_EQ(m.messages_dropped(), 1u);
  const stats::Report r = stats::collect(tracer, 2);
  EXPECT_EQ(r.pes[1].execs, 1u) << "only the pre-failure handler really ran";
  // 1s of charged work plus per-delivery scheduling overhead — and none of
  // the disposed handler's 5s.
  EXPECT_NEAR(r.pes[1].exec, 1.0, 1e-4);
  EXPECT_EQ(count_kind(tracer, trace::Kind::kSend), 0u);
}

}  // namespace
