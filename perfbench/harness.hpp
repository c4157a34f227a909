#pragma once
// Measurement harness of the end-to-end benchmark: drives sim::Machine::step()
// from outside the program, times application steps in host time, and — in
// the traced run — attributes every machine step to the layer that did the
// work, from the trace events that step appended.
//
// Attribution of one machine step (its host-time span):
//   * no kExec event        -> sim (a message arrival moving into a ready queue)
//   * a kEntry event        -> miniapps, keyed by the first entry's id
//   * otherwise             -> runtime (reductions, broadcast legs, QD, location
//                              protocol, LB/FT control legs)
// Step spans are children of the application-step span that contains them;
// the setup, LB assign, checkpoint and restore spans wrap their own calls.
// Spans are folded into in-memory totals as they close and reported when the
// run ends; nothing is written while measuring.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/machine.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Quantile with linear interpolation between closest ranks; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Keeps the calibration kernel's result observable.
inline volatile double calibration_sink = 0;

/// Fixed host work that shares no code with the program under test: binary
/// heap pushes and pops plus hash-table updates over about 2 MB, the operation
/// mix of the emulator's event list and location tables.  Its least time over
/// a run measures how fast the shared host was during that run.
inline double calibration_kernel_s() {
  const Clock::time_point t0 = Clock::now();
  std::priority_queue<double, std::vector<double>, std::greater<>> heap;
  std::unordered_map<std::uint64_t, double> table;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  double acc = 0;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;  // xorshift64
    x ^= x >> 7;
    x ^= x << 17;
    heap.push(static_cast<double>(x >> 11));
    table[x % 50000] += 1.0;
    if (heap.size() > 4096) {
      acc += heap.top();
      heap.pop();
    }
  }
  calibration_sink = acc + static_cast<double>(table.size());
  return seconds_between(t0, Clock::now());
}

/// Named values that must repeat bit for bit across runs of one seed
/// (virtual makespan and every count), traced or not.
class Fingerprint {
 public:
  void add(std::string name, double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    items_.emplace_back(std::move(name), bits);
  }
  void add(std::string name, std::uint64_t v) { items_.emplace_back(std::move(name), v); }

  /// Names whose values differ from `other` ("" when identical).
  std::string diff(const Fingerprint& other) const {
    std::string out;
    if (items_.size() != other.items_.size()) return "fingerprint layout";
    for (std::size_t i = 0; i < items_.size(); ++i)
      if (items_[i] != other.items_[i]) out += (out.empty() ? "" : ",") + items_[i].first;
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::uint64_t>> items_;
};

/// Traced-run accumulators, filled per machine step.
struct LayerTrace {
  double arrive_host_s = 0;
  double internal_host_s = 0;
  std::uint64_t internal_steps = 0;
  double entry_host_s = 0;
  std::vector<double> entry_host_by_ep;  ///< indexed by EntryId
  double step_span_s = 0;                ///< sum of all machine-step spans
  std::vector<double> queue_wait_virt;   ///< kRecv: service start - arrival
  std::vector<double> net_latency_virt;  ///< kSend: arrival - departure
  double idle_virt = 0;                  ///< sum of kIdle spans
  std::uint64_t pending_events_max = 0;
  std::size_t event_queue_bytes_max = 0;

  void on_step(double host_s, const std::vector<trace::Event>& evs) {
    step_span_s += host_s;
    bool exec = false;
    int ep = -1;
    for (const trace::Event& e : evs) {
      switch (e.kind) {
        case trace::Kind::kExec:
          exec = true;
          break;
        case trace::Kind::kEntry:
          if (ep < 0) ep = e.b;
          break;
        case trace::Kind::kSend:
          net_latency_virt.push_back(e.end - e.begin);
          break;
        case trace::Kind::kRecv:
          queue_wait_virt.push_back(e.end - e.begin);
          break;
        case trace::Kind::kIdle:
          idle_virt += e.end - e.begin;
          break;
        case trace::Kind::kPhase:
          break;
      }
    }
    if (!exec) {
      arrive_host_s += host_s;
    } else if (ep >= 0) {
      entry_host_s += host_s;
      if (static_cast<std::size_t>(ep) >= entry_host_by_ep.size())
        entry_host_by_ep.resize(static_cast<std::size_t>(ep) + 1, 0.0);
      entry_host_by_ep[static_cast<std::size_t>(ep)] += host_s;
    } else {
      internal_host_s += host_s;
      ++internal_steps;
    }
  }

  double entry_host(int ep) const {
    return ep >= 0 && static_cast<std::size_t>(ep) < entry_host_by_ep.size()
               ? entry_host_by_ep[static_cast<std::size_t>(ep)]
               : 0.0;
  }
};

/// Host timings of one run of a workload.
struct Timing {
  double host_s = 0;               ///< first step until the event list drains
  std::vector<double> step_ms;     ///< host ms per application step
  double tail_s = 0;               ///< after the last step until the list drains
};

/// Per-step least host time over several runs of the same deterministic
/// workload; host_s is the sum of the step minima plus the least tail.
inline Timing best_of(const std::vector<const Timing*>& runs) {
  Timing best;
  if (runs.empty()) return best;
  best = *runs.front();
  for (const Timing* t : runs) {
    best.step_ms.resize(std::min(best.step_ms.size(), t->step_ms.size()));
    for (std::size_t i = 0; i < best.step_ms.size(); ++i)
      best.step_ms[i] = std::min(best.step_ms[i], t->step_ms[i]);
    best.tail_s = std::min(best.tail_s, t->tail_s);
  }
  best.host_s = best.tail_s;
  for (double ms : best.step_ms) best.host_s += ms * 1e-3;
  return best;
}

/// Drives `m` to completion.  `progress()` returns completed application
/// steps; each increase closes one application-step span.  With `tr` set,
/// every machine step is timed and attributed into `layers`.
template <class Progress>
Timing drive(sim::Machine& m, Progress&& progress, trace::Tracer* tr,
             LayerTrace* layers) {
  Timing t;
  int seen = progress();
  const Clock::time_point start = Clock::now();
  Clock::time_point step_start = start;
  // Reads the clock only when a step completed.  Several steps completing
  // inside one machine step share its span.
  auto close_steps = [&](Clock::time_point now) {
    const int p = progress();
    const double ms = seconds_between(step_start, now) * 1e3 / (p - seen);
    for (int i = seen; i < p; ++i) t.step_ms.push_back(ms);
    seen = p;
    step_start = now;
  };
  if (tr == nullptr) {
    while (m.step())
      if (progress() != seen) close_steps(Clock::now());
  } else {
    m.set_tracer(tr);
    for (;;) {
      const Clock::time_point a = Clock::now();
      const bool more = m.step();
      const Clock::time_point b = Clock::now();
      if (!more) break;
      layers->on_step(seconds_between(a, b), tr->events());
      tr->clear();
      layers->pending_events_max =
          std::max<std::uint64_t>(layers->pending_events_max, m.pending_events());
      layers->event_queue_bytes_max =
          std::max(layers->event_queue_bytes_max, m.event_queue_bytes());
      if (progress() != seen) close_steps(b);
    }
    m.set_tracer(nullptr);
  }
  const Clock::time_point end = Clock::now();
  t.host_s = seconds_between(start, end);
  t.tail_s = seconds_between(step_start, end);
  return t;
}

}  // namespace perfbench
