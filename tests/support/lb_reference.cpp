#include "support/lb_reference.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <queue>

#include "lb/manager.hpp"
#include "runtime/runtime.hpp"

namespace charm::lb::reference {

namespace {

std::vector<std::size_t> migratable_by_desc_work(const Stats& s) {
  std::vector<std::size_t> ids;
  ids.reserve(s.chares.size());
  for (std::size_t i = 0; i < s.chares.size(); ++i)
    if (s.chares[i].migratable) ids.push_back(i);
  std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
    if (s.chares[a].work != s.chares[b].work) return s.chares[a].work > s.chares[b].work;
    return a < b;  // deterministic tie-break
  });
  return ids;
}

std::vector<double> base_completion(const Stats& s) {
  // Completion contributed by non-migratable chares (they stay put).
  std::vector<double> done(static_cast<std::size_t>(s.npes), 0.0);
  for (const ChareInfo& c : s.chares) {
    if (!c.migratable && c.pe < s.npes)
      done[static_cast<std::size_t>(c.pe)] += c.work / s.pe_speed[static_cast<std::size_t>(c.pe)];
  }
  return done;
}

std::vector<Migration> to_migrations(const Stats& s, const std::vector<int>& target) {
  std::vector<Migration> out;
  for (std::size_t i = 0; i < s.chares.size(); ++i) {
    const ChareInfo& c = s.chares[i];
    if (c.migratable && target[i] != c.pe)
      out.push_back(Migration{c.col, c.idx, c.pe, target[i]});
  }
  return out;
}

/// Speed-aware min-completion assignment over a subset of PEs.  PEs are
/// bucketed by identical speed so the argmin is O(#speed classes) per chare.
class MinCompletionAssigner {
 public:
  MinCompletionAssigner(const Stats& s, std::vector<int> pes, std::vector<double> done)
      : speeds_(s.pe_speed), done_(std::move(done)) {
    std::map<double, std::vector<int>> classes;
    for (int pe : pes) classes[speeds_[static_cast<std::size_t>(pe)]].push_back(pe);
    for (auto& [speed, members] : classes) {
      Class cl;
      cl.speed = speed;
      for (int pe : members) cl.heap.push({done_[static_cast<std::size_t>(pe)], pe});
      classes_.push_back(std::move(cl));
    }
  }

  int place(double work) {
    double best_time = 0;
    std::size_t best = classes_.size();
    for (std::size_t k = 0; k < classes_.size(); ++k) {
      const auto& top = classes_[k].heap.top();
      const double t = top.first + work / classes_[k].speed;
      if (best == classes_.size() || t < best_time ||
          (t == best_time && top.second < classes_[best].heap.top().second)) {
        best = k;
        best_time = t;
      }
    }
    Class& cl = classes_[best];
    auto [cur, pe] = cl.heap.top();
    cl.heap.pop();
    cl.heap.push({cur + work / cl.speed, pe});
    done_[static_cast<std::size_t>(pe)] = cur + work / cl.speed;
    return pe;
  }

 private:
  struct Class {
    double speed = 1.0;
    // min-heap of (completion, pe); pe tie-break keeps runs deterministic
    std::priority_queue<std::pair<double, int>, std::vector<std::pair<double, int>>,
                        std::greater<>>
        heap;
  };
  const SpeedMap& speeds_;
  std::vector<double> done_;
  std::vector<Class> classes_;
};

}  // namespace

StatsAux build_aux(const Stats& s) {
  StatsAux aux;
  for (const ChareInfo& c : s.chares) aux.pes.push_back(c.pe);
  std::sort(aux.pes.begin(), aux.pes.end());
  aux.pes.erase(std::unique(aux.pes.begin(), aux.pes.end()), aux.pes.end());

  for (const ChareInfo& c : s.chares) aux.total_work += c.work;

  // Buckets: each hosting PE's chare ranks in canonical (ascending) order.
  std::vector<std::size_t> bucket(s.chares.size());
  aux.bucket_off.assign(aux.pes.size() + 1, 0);
  for (std::size_t r = 0; r < s.chares.size(); ++r) {
    bucket[r] = static_cast<std::size_t>(
        std::lower_bound(aux.pes.begin(), aux.pes.end(), s.chares[r].pe) - aux.pes.begin());
    ++aux.bucket_off[bucket[r] + 1];
  }
  std::partial_sum(aux.bucket_off.begin(), aux.bucket_off.end(), aux.bucket_off.begin());
  aux.bucket_ranks.resize(s.chares.size());
  std::vector<std::uint32_t> fill(aux.bucket_off.begin(), aux.bucket_off.end() - 1);
  for (std::size_t r = 0; r < s.chares.size(); ++r)
    aux.bucket_ranks[fill[bucket[r]]++] = static_cast<std::uint32_t>(r);

  // Per-PE completion sums, folded in bucket order.
  for (std::size_t k = 0; k < aux.pes.size(); ++k) {
    const double sp = s.pe_speed[static_cast<std::size_t>(aux.pes[k])];
    double done_all = 0.0;
    double done_nonmig = 0.0;
    for (std::uint32_t i = aux.bucket_off[k]; i < aux.bucket_off[k + 1]; ++i) {
      const ChareInfo& c = s.chares[aux.bucket_ranks[i]];
      done_all += c.work / sp;
      if (!c.migratable) done_nonmig += c.work / sp;
    }
    aux.done_all.push_back(done_all);
    aux.done_nonmig.push_back(done_nonmig);
  }

  for (const std::size_t r : migratable_by_desc_work(s))
    aux.desc_by_work.push_back(static_cast<std::uint32_t>(r));
  return aux;
}

Stats with_aux(Stats s) {
  s.aux = build_aux(s);
  return s;
}

Stats rebuild_stats(Runtime& rt, int target_pes) {
  Stats s;
  s.npes = target_pes;
  // Untouched PEs read as frequency 1.0 — the SpeedMap default — so a
  // touched-only walk sees every non-default speed.
  rt.machine().for_each_touched_pe([&](int pe, const sim::Pe& p) {
    if (p.freq() != 1.0) s.pe_speed.set(pe, p.freq());
  });
  for (CollectionId col : rt.lb().collections()) {
    Collection& c = rt.collection(col);
    c.pe.for_each_touched([&](std::size_t pe, PeLocal& pl) {
      for (auto& [ix, obj] : pl.elems) {
        ChareInfo info;
        info.col = col;
        info.idx = ix;
        info.pe = static_cast<int>(pe);
        // Measured load is in virtual seconds on the source PE; normalize
        // back to work units so strategies can predict times on other PEs.
        info.work = obj->round_load() * s.pe_speed[pe];
        info.migratable = obj->migratable() && c.migratable;
        info.coords = obj->lb_coords();
        s.chares.push_back(info);
      }
    });
  }
  // Deterministic order regardless of hash-map iteration details.
  std::sort(s.chares.begin(), s.chares.end(), [](const ChareInfo& a, const ChareInfo& b) {
    if (a.col != b.col) return a.col < b.col;
    if (a.idx.a != b.idx.a) return a.idx.a < b.idx.a;
    return a.idx.b < b.idx.b;
  });
  return with_aux(std::move(s));
}

std::vector<Migration> greedy(const Stats& s) {
  std::vector<int> pes(static_cast<std::size_t>(s.npes));
  std::iota(pes.begin(), pes.end(), 0);
  MinCompletionAssigner assigner(s, pes, base_completion(s));
  std::vector<int> target(s.chares.size());
  for (std::size_t i = 0; i < s.chares.size(); ++i) target[i] = s.chares[i].pe;
  for (std::size_t i : migratable_by_desc_work(s)) target[i] = assigner.place(s.chares[i].work);
  return to_migrations(s, target);
}

std::vector<Migration> refine(const Stats& s, double tolerance) {
  const auto n = static_cast<std::size_t>(s.npes);
  std::vector<double> done(n, 0.0);
  std::vector<int> target(s.chares.size());
  std::vector<std::vector<std::size_t>> on_pe(n);
  double total_work = 0;
  for (std::size_t i = 0; i < s.chares.size(); ++i) {
    const ChareInfo& c = s.chares[i];
    const int pe = std::min(c.pe, s.npes - 1);
    target[i] = pe;
    done[static_cast<std::size_t>(pe)] += c.work / s.pe_speed[static_cast<std::size_t>(pe)];
    if (c.migratable) on_pe[static_cast<std::size_t>(pe)].push_back(i);
    total_work += c.work;
  }
  const double total_speed = s.pe_speed.sum_first(s.npes);
  const double target_time = total_work / total_speed;

  for (int iter = 0; iter < 8 * s.npes; ++iter) {
    const auto hot = static_cast<std::size_t>(
        std::max_element(done.begin(), done.end()) - done.begin());
    const auto cold = static_cast<std::size_t>(
        std::min_element(done.begin(), done.end()) - done.begin());
    if (done[hot] <= target_time * tolerance) break;
    // Move the largest chare that fits without overshooting the target.
    std::size_t pick = s.chares.size();
    double pick_work = -1;
    for (std::size_t i : on_pe[hot]) {
      const double w = s.chares[i].work;
      if (done[cold] + w / s.pe_speed[cold] <= target_time * tolerance && w > pick_work) {
        pick = i;
        pick_work = w;
      }
    }
    if (pick == s.chares.size()) {
      // Nothing fits under the cap; move the smallest to make progress.
      for (std::size_t i : on_pe[hot])
        if (pick == s.chares.size() || s.chares[i].work < pick_work || pick_work < 0) {
          pick = i;
          pick_work = s.chares[i].work;
        }
      if (pick == s.chares.size()) break;
    }
    on_pe[hot].erase(std::find(on_pe[hot].begin(), on_pe[hot].end(), pick));
    on_pe[cold].push_back(pick);
    done[hot] -= pick_work / s.pe_speed[hot];
    done[cold] += pick_work / s.pe_speed[cold];
    target[pick] = static_cast<int>(cold);
  }
  return to_migrations(s, target);
}

}  // namespace charm::lb::reference
