#include "miniapps/stencil/stencil.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace charm::stencil {

namespace kernel {
namespace {

// Cells [1, w-1) of one row: every neighbour is an array element, so the
// loop has no branch and GCC vectorizes it (2 lanes with baseline SSE2).
void sweep_interior(const double* __restrict row, const double* __restrict down,
                    const double* __restrict up, double* __restrict out,
                    double* __restrict d2, int w) {
  for (int i = 1; i < w - 1; ++i) {
    const double v = 0.25 * (row[i - 1] + row[i + 1] + down[i] + up[i]);
    const double d = v - row[i];
    out[i] = v;
    d2[i] = d * d;
  }
}

}  // namespace

double sweep(const double* u, double* unew, int w, int h, const Side (&sides)[4]) {
  if (w <= 0 || h <= 0) return 0.0;
  // Squared updates of one row, summed after the row's vector loop.
  thread_local std::vector<double> d2;
  if (d2.size() < static_cast<std::size_t>(w)) d2.resize(static_cast<std::size_t>(w));
  // A missing down/up strip reads as a row of zeros.  Every strip a tile
  // waits for has arrived when it sweeps, so this allocates only in tests.
  std::vector<double> zeros;
  for (int s = 2; s < 4; ++s) {
    if (!sides[s].boundary && sides[s].ghost == nullptr)
      zeros.assign(static_cast<std::size_t>(w), 0.0);
  }
  auto edge_row = [&zeros](const Side& s, const double* row) {
    return s.boundary ? row : s.ghost != nullptr ? s.ghost : zeros.data();
  };
  auto edge_cell = [](const Side& s, const double* row, int i, int j) {
    return s.boundary ? row[i] : s.ghost != nullptr ? s.ghost[j] : 0.0;
  };
  const int first = sides[0].boundary ? 1 : 0;  // left global boundary: column 0 is fixed
  double sum = 0;
  for (int j = 0; j < h; ++j) {
    const double* row = u + static_cast<std::ptrdiff_t>(j) * w;
    double* out = unew + static_cast<std::ptrdiff_t>(j) * w;
    const double* down = j > 0 ? row - w : edge_row(sides[2], row);
    const double* up = j < h - 1 ? row + w : edge_row(sides[3], row);
    const double left = edge_cell(sides[0], row, 0, j);
    const double right = edge_cell(sides[1], row, w - 1, j);
    auto edge = [&](int i, double v) {
      const double d = v - row[i];
      out[i] = v;
      d2[static_cast<std::size_t>(i)] = d * d;
    };
    if (w == 1) {
      edge(0, 0.25 * (left + right + down[0] + up[0]));
    } else {
      edge(0, 0.25 * (left + row[1] + down[0] + up[0]));
      sweep_interior(row, down, up, out, d2.data(), w);
      edge(w - 1, 0.25 * (row[w - 2] + right + down[w - 1] + up[w - 1]));
    }
    if (first == 1) out[0] = row[0];
    // One in-order chain over the whole tile: the sum must not reassociate.
    for (int i = first; i < w; ++i) sum += d2[static_cast<std::size_t>(i)];
  }
  return sum;
}

}  // namespace kernel

Callback Tile::done_cb;

Tile::Tile(const Params& p, ArrayProxy<Tile, Index2D> tiles) : p_(p), tiles_(tiles) {}

int Tile::bw() const { return p_.grid / p_.tiles_x; }
int Tile::bh() const { return p_.grid / p_.tiles_y; }

double& Tile::at(std::vector<double>& v, int i, int j) const {
  return v[static_cast<std::size_t>(j * bw() + i)];
}

void Tile::begin(const StartMsg& m) {
  if (u_.empty()) {
    // Dirichlet problem: interior 0, left global boundary held at 1.
    u_.assign(static_cast<std::size_t>(bw() * bh()), 0.0);
    unew_ = u_;
    if (index().x == 0) {
      for (int j = 0; j < bh(); ++j) at(u_, 0, j) = 1.0;
    }
  }
  target_ = gather_.step() + m.iters;
  start_iter();
}

void Tile::start_iter() {
  const Index2D me = index();
  for (int s = 0; s < 4; ++s) ghosts_[s].clear();

  int expected = 0;
  auto send_strip = [&](int nx, int ny, int their_side, bool horizontal) {
    if (nx < 0 || nx >= p_.tiles_x || ny < 0 || ny >= p_.tiles_y) return;
    GhostMsg g;
    g.iter = gather_.step();
    g.side = their_side;
    if (horizontal) {
      const int col = their_side == 0 ? bw() - 1 : 0;  // they see our edge
      g.strip.resize(static_cast<std::size_t>(bh()));
      for (int j = 0; j < bh(); ++j) g.strip[static_cast<std::size_t>(j)] = at(u_, col, j);
    } else {
      const int row = their_side == 2 ? bh() - 1 : 0;
      const double* first = u_.data() + static_cast<std::ptrdiff_t>(row) * bw();
      g.strip.assign(first, first + bw());
    }
    ++expected;  // symmetric stencil: one in for every out
    tiles_[Index2D{nx, ny}].send<&Tile::ghost>(std::move(g));
  };
  // side codes are from the receiver's perspective.
  send_strip(me.x - 1, me.y, 1, true);   // our left edge is their right ghost
  send_strip(me.x + 1, me.y, 0, true);
  send_strip(me.x, me.y - 1, 3, false);
  send_strip(me.x, me.y + 1, 2, false);

  if (gather_.open(gather_.step(), expected, [&](const GhostMsg& g) { ghost(g); }))
    sweep();  // single-tile case
}

void Tile::ghost(const GhostMsg& m) {
  if (!gather_.offer(m.iter, m)) return;  // buffered for a later iter, or stale
  if (!ghosts_[m.side].empty()) return;   // duplicate strip for this side
  ghosts_[m.side] = m.strip;
  if (gather_.accept()) sweep();
}

void Tile::sweep() {
  const Index2D me = index();
  const int W = bw(), H = bh();
  kernel::Side sides[4];
  sides[0].boundary = me.x == 0;
  sides[1].boundary = me.x == p_.tiles_x - 1;
  sides[2].boundary = me.y == 0;
  sides[3].boundary = me.y == p_.tiles_y - 1;
  for (int s = 0; s < 4; ++s) {
    if (!ghosts_[s].empty()) sides[s].ghost = ghosts_[s].data();
  }
  last_delta_ = kernel::sweep(u_.data(), unew_.data(), W, H, sides);
  std::swap(u_, unew_);

  const double weight =
      1.0 + p_.imbalance * (p_.tiles_x > 1
                                ? static_cast<double>(me.x) / (p_.tiles_x - 1)
                                : 0.0);
  charm::charge(p_.cell_cost * weight * static_cast<double>(W) * static_cast<double>(H));

  // Next-iteration ghosts from early-resumed neighbors must buffer until our
  // own resume, so the gather closes here.
  gather_.close();
  at_sync();
}

void Tile::resume_from_sync() {
  if (gather_.step() < target_) {
    start_iter();
  } else if (target_ > 0) {
    contribute(last_delta_, ReduceOp::kSum, done_cb);
  }
}

std::array<double, 3> Tile::lb_coords() const {
  return {static_cast<double>(index().x), static_cast<double>(index().y), 0.0};
}

void Tile::pup(pup::Er& p) {
  ArrayElementBase::pup(p);
  p | p_;
  p | tiles_;
  p | u_;
  for (auto& g : ghosts_) p | g;
  p | gather_;
  p | target_;
  p | last_delta_;
  // unew_ is the sweep's output buffer: the kernel writes every cell before
  // anything reads it, so it is not packed; unpack sizes it (DESIGN.md §16).
  if (p.unpacking()) unew_.assign(u_.size(), 0.0);
}

Sim::Sim(Runtime& rt, Params p) : rt_(rt), p_(p) {
  tiles_ = ArrayProxy<Tile, Index2D>::create(rt);
  const int P = rt.active_pes();
  const int n = p.tiles_x * p.tiles_y;
  for (int x = 0; x < p.tiles_x; ++x) {
    for (int y = 0; y < p.tiles_y; ++y) {
      const int linear = x * p.tiles_y + y;
      tiles_.seed(Index2D{x, y}, static_cast<int>(static_cast<long>(linear) * P / n), p_,
                  tiles_);
    }
  }
  rt.lb().register_collection(tiles_.id());
}

void Sim::run(int iters, Callback done) {
  Tile::done_cb = std::move(done);
  tiles_.broadcast<&Tile::begin>(StartMsg{iters});
}

double Sim::global_delta() const {
  double d = 0;
  rt_.collection(tiles_.id()).for_each_element(
      [&d](const ArrayElementBase& e) { d += static_cast<const Tile&>(e).last_delta(); });
  return d;
}

}  // namespace charm::stencil
