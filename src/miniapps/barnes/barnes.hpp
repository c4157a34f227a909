#pragma once
// Barnes-Hut mini-app (§IV-C) with ChaNGa-style phases (Fig 13).
//
// The domain is oct-decomposed into TreePieces (many more pieces than PEs).
// Every step runs the phases the paper's ChaNGa plot breaks out:
//
//   DD      domain decomposition — particles that drifted out of a piece's
//           region are shipped to the owning piece (QD-delimited);
//   TB      tree build — each piece builds its local summary (center of mass,
//           mass, bounding radius) and the summaries are gathered+broadcast;
//   Gravity far pieces interact via their multipole (monopole) summary; near
//           pieces are fetched with HIGH-priority remote data requests
//           (§IV-C-2: prioritized messages) and integrated directly;
//   LB      AtSync with an ORB strategy over piece centers of mass.
//
// The Plummer-like clustered particle distribution makes central pieces far
// heavier — the imbalance Fig 12 measures.

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "runtime/charm.hpp"

namespace charm::barnes {

struct Params {
  int pieces_per_dim = 4;     ///< pieces = pieces_per_dim^3
  int nparticles = 4096;
  double theta = 0.5;         ///< opening angle
  double dt = 1e-3;
  double soften = 0.05;
  double pair_cost = 8e-9;    ///< charged per direct particle pair
  double mono_cost = 4e-9;    ///< charged per particle-monopole interaction
  double concentration = 1.0; ///< Plummer core scale (smaller = more clustered)
  /// Cluster center: deliberately off the coarse decomposition grid lines so
  /// a one-piece-per-PE run is genuinely imbalanced (as in any real dataset).
  double cx = 0.37, cy = 0.41, cz = 0.47;
  std::uint64_t seed = 17;
};

struct Body {
  double x = 0, y = 0, z = 0;
  double vx = 0, vy = 0, vz = 0;
  double m = 1.0;
};

/// The gravity kernel (DESIGN.md §14).  Target positions `pos` and
/// accelerations `acc` are blocked structure-of-arrays over `n` bodies,
/// [x0..xn-1 | y.. | z..] and [ax.. | ay.. | az..].
namespace kernel {

/// One point mass acting on the targets: a body, or a far piece's monopole.
struct Source {
  double x = 0, y = 0, z = 0, m = 0;
};

/// Adds `s`'s softened acceleration to targets [lo, hi):
///   acc += m * (s - x) * (1 / (r2 * sqrt(r2))),  r2 = |s - x|^2 + eps2,
/// in exactly that operation order, so any caller that presents a target's
/// sources in a fixed order gets a bit-reproducible sum however the loop is
/// vectorized.
void add_source(const double* __restrict pos, double* __restrict acc, std::size_t n,
                std::size_t lo, std::size_t hi, Source s, double eps2);

/// All pairs within one piece (`bodies` supplies the masses): source j acts
/// on [0, j) and (j, n), so every target sums the others in index order.
void add_self(const double* pos, double* acc, const std::vector<Body>& bodies, double eps2);

/// One-sided near interaction: every body of `sources`, in order, acts on
/// all n targets.
void add_bodies(const double* pos, double* acc, std::size_t n,
                const std::vector<Body>& sources, double eps2);

}  // namespace kernel

struct PieceSummary {
  std::int32_t piece = -1;
  double cx = 0, cy = 0, cz = 0;  ///< center of mass
  double mass = 0;
  double radius = 0;              ///< bounding radius around the COM
  std::int32_t count = 0;
};

struct StartMsg {
  int dummy = 0;
  template <class P>
  void pup(P& p) {
    p | dummy;
  }
};

struct BodiesMsg {
  std::int32_t from = -1;
  std::vector<Body> bodies;
  template <class P>
  void pup(P& p) {
    p | from;
    p | bodies;
  }
};

struct SummariesMsg {
  std::vector<PieceSummary> all;
  template <class P>
  void pup(P& p) {
    p | all;
  }
};

struct RequestMsg {
  std::int32_t from = -1;
  template <class P>
  void pup(P& p) {
    p | from;
  }
};

class Piece : public charm::ArrayElement<Piece, std::int32_t> {
 public:
  Piece() = default;
  Piece(const Params& p, ArrayProxy<Piece, std::int32_t> pieces);

  // phase entries (driver-broadcast)
  void exchange();                    // DD: ship drifted bodies
  void take_bodies(const BodiesMsg& m);
  void build(const StartMsg&);        // TB: summarize + contribute
  void gravity(const SummariesMsg& m);// Gravity: walk summaries
  void request(const RequestMsg& m);  // near-piece data request
  void reply(const BodiesMsg& m);     // HIGH-priority remote data reply
  void integrate(const StartMsg&);    // drift + AtSync (LB phase)
  void resume_from_sync() override;   // contributes the LB phase barrier

  std::array<double, 3> lb_coords() const override;
  void pup(pup::Er& p) override;

  const std::vector<Body>& bodies() const { return bodies_; }
  void seed_bodies(std::vector<Body> b) { bodies_ = std::move(b); }
  std::uint64_t direct_pairs() const { return direct_pairs_; }
  /// The last gravity phase's accelerations, blocked [ax.. | ay.. | az..]
  /// in the order bodies() had when it ran.
  const std::vector<double>& accelerations() const { return acc_; }
  /// Near-piece replies still awaited in the current gravity phase.
  int replies_outstanding() const {
    return gravity_active_ ? replies_expected_ - replies_seen_ : 0;
  }

  static Callback phase_cb;  ///< phase-barrier reduction target

 private:
  int owner_of(const Body& b) const;
  void maybe_finish_gravity();
  void fill_positions();

  Params p_{};
  ArrayProxy<Piece, std::int32_t> pieces_;
  std::vector<Body> bodies_;
  std::vector<double> acc_;        ///< blocked [ax.. | ay.. | az..], 3 per body
  /// Blocked [x.. | y.. | z..] copy of bodies_' positions for the kernel.
  /// Derived state, not pup'd: rebuilt by gravity() and on unpack.
  std::vector<double> pos_;
  int replies_expected_ = 0;
  int replies_seen_ = 0;
  bool gravity_active_ = false;
  std::uint64_t direct_pairs_ = 0;
};

/// Per-step phase timings in virtual seconds (Fig 13 series).
struct PhaseTimes {
  double dd = 0, tb = 0, gravity = 0, lb = 0, total = 0;
};

class Simulation {
 public:
  Simulation(Runtime& rt, Params p);

  /// Run `steps` full steps; `done` fires at the end.
  void run(int steps, Callback done);

  const std::vector<PhaseTimes>& phase_times() const { return times_; }
  ArrayProxy<Piece, std::int32_t> pieces() const { return pieces_; }
  int npieces() const;
  std::size_t total_bodies() const;
  std::array<double, 3> total_momentum() const;

 private:
  void start_step();
  void after_dd();
  void after_tb(std::vector<std::vector<std::byte>> chunks);
  void after_gravity();
  void after_lb();

  Runtime& rt_;
  Params p_;
  ArrayProxy<Piece, std::int32_t> pieces_;
  int steps_left_ = 0;
  Callback done_;
  std::vector<PhaseTimes> times_;
  PhaseTimes current_{};
  double phase_start_ = 0;
};

}  // namespace charm::barnes

namespace pup {
template <>
struct AsBytes<charm::barnes::Params> : std::true_type {};
template <>
struct AsBytes<charm::barnes::Body> : std::true_type {};
template <>
struct AsBytes<charm::barnes::PieceSummary> : std::true_type {};
template <>
struct MemCopyable<charm::barnes::StartMsg> : std::true_type {
  static constexpr std::size_t kFieldBytes = sizeof(int);
};
template <>
struct MemCopyable<charm::barnes::RequestMsg> : std::true_type {
  static constexpr std::size_t kFieldBytes = sizeof(std::int32_t);
};
}  // namespace pup
