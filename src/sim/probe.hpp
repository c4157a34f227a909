#pragma once
// The one instrumentation point of the runtime (DESIGN.md §5b): every site
// where the emulator, the runtime, FT or LB observes something — a send, an
// arrival, a handler execution, an entry method, a collective message, a
// machine step, a runtime phase — makes exactly one call here, and the probe
// decides what each attached sink records.  Two sinks exist: the span log
// (trace::Tracer) and the live metrics monitor (introspect::Monitor,
// DESIGN.md §11).  Both are optional; with neither attached a site costs an
// inline null test per sink it feeds.
//
// The probe never charges virtual time, so results are bit-identical with
// any combination of sinks attached.  The floating-point values each sink
// receives are fixed by the site (see each method) so post-mortem stats
// derived from the span log reconcile bit-exactly with the live counters.

#include <cstddef>

#include "introspect/metrics.hpp"
#include "sim/event_queue.hpp"
#include "trace/trace.hpp"

namespace sim {

class Probe {
 public:
  introspect::Monitor* monitor() const { return monitor_; }
  void set_tracer(trace::Tracer* t) { tracer_ = t; }
  void set_monitor(introspect::Monitor* m) { monitor_ = m; }

  // ---- emulator sites (sim::Machine) -----------------------------------

  /// A message departs `src` at `depart` and reaches `dst`'s queue at
  /// `arrive`.  `hops()` is evaluated only when the span log is attached.
  template <class HopsFn>
  void send(int src, int dst, std::size_t bytes, Time depart, Time arrive,
            HopsFn&& hops) {
    if (tracer_ != nullptr) tracer_->send(src, dst, bytes, hops(), depart, arrive);
    if (monitor_ != nullptr) monitor_->on_send(src, bytes);
  }

  /// A message entered `pe`'s ready queue, which now holds `ready_depth`.
  void arrive(int pe, std::size_t ready_depth) {
    if (monitor_ != nullptr) monitor_->on_arrive(pe, ready_depth);
  }

  /// `pe`, free since `free_since`, starts serving a message at `start`: an
  /// idle span when the PE waited, then the message's queueing span.
  void exec_begin(int pe, Time free_since, Time start, int priority,
                  std::size_t bytes, Time arrival) {
    if (tracer_ == nullptr) return;
    if (free_since < start) tracer_->idle(pe, free_since, start);
    tracer_->recv(pe, priority, bytes, arrival, start);
  }

  /// The handler on `pe` ran over [start, end].  The monitor's exec total
  /// receives `end - start`, the same expression stats derive from the span.
  void exec_end(int pe, Time start, Time end, std::size_t bytes,
                std::size_t ready_depth) {
    if (tracer_ != nullptr) tracer_->exec(pe, start, end, bytes);
    if (monitor_ != nullptr) monitor_->on_exec(pe, end - start, ready_depth);
  }

  /// End of every Machine::step (sampling boundary for the monitor).
  void step(Time now, std::size_t evq_depth) {
    if (monitor_ != nullptr) monitor_->on_step(now, evq_depth);
  }

  /// `pe`'s ready queue was emptied without executing (quarantine drain).
  void queue_cleared(int pe) {
    if (monitor_ != nullptr) monitor_->on_queue_change(pe, 0);
  }

  // ---- runtime sites ---------------------------------------------------

  /// An entry method of (col, ep) on `pe` charged `dt` and returned at `end`:
  /// the span log gets [end - dt, end], the monitor gets `dt`.
  void entry(int pe, int col, int ep, double dt, Time end) {
    if (tracer_ != nullptr) tracer_->entry(pe, col, ep, end - dt, end);
    if (monitor_ != nullptr) monitor_->on_entry(pe, col, ep, dt);
  }

  /// A broadcast or reduction leg of `bytes` on the wire.
  void collective(std::size_t bytes) {
    if (monitor_ != nullptr) monitor_->on_collective(bytes);
  }

  // ---- runtime phases --------------------------------------------------
  // A phase may leave a span in the log, a row in the decision journal, or
  // both.  Paired phases (checkpoint, restore, LB step) emit from one call so
  // the span and the row can never disagree on time.

  /// A span only (the injector's zero-length failure span).
  void phase(trace::Phase ph, int pe, Time begin, Time end, int aux = -1) {
    if (tracer_ != nullptr) tracer_->phase_span(ph, pe, begin, end, aux);
  }

  /// A journal row only (failures, malleability reconfigurations).
  void journal(introspect::JournalKind kind, Time t, int aux, double value) {
    if (monitor_ != nullptr) monitor_->journal(kind, t, aux, value);
  }

  /// A committed checkpoint of `bytes` over [begin, end]: span and row.
  void checkpoint(Time begin, Time end, double bytes) {
    phase(trace::Phase::kCheckpoint, 0, begin, end);
    journal(introspect::JournalKind::kCheckpoint, end, 0, bytes);
  }

  /// A rollback of `victims` failed PEs over [begin, end]: span and row
  /// (value = recovery time).
  void restore(Time begin, Time end, int victims) {
    phase(trace::Phase::kRestore, 0, begin, end);
    journal(introspect::JournalKind::kRestore, end, victims, end - begin);
  }

  /// An LB step over [begin, end].  `migrations` is -1 when no strategy ran:
  /// such a step gets a span and no row.  `cost` is the row's round cost.
  void lb_step(Time begin, Time end, int migrations, double cost) {
    phase(trace::Phase::kLbStep, 0, begin, end, migrations);
    if (migrations >= 0)
      journal(introspect::JournalKind::kLbRound, end, migrations, cost);
  }

 private:
  trace::Tracer* tracer_ = nullptr;
  introspect::Monitor* monitor_ = nullptr;
};

}  // namespace sim
