#pragma once
// TRAM: Topological Routing and Aggregation Module (§III-F, Fig 15b).
//
// Fine-grained messages (data items) destined for chare array elements are
// buffered per *peer* — any PE reachable by traveling along a single
// dimension of the machine's torus — and shipped as one combined message when
// a buffer fills.  Items whose destination is not a peer are routed through
// intermediate peers dimension by dimension, so buffer space is
// O(peers) = O(sum of dims), not O(P), and items with different destinations
// share sub-paths.
//
// Items are packed *directly* into the per-peer aggregation buffer: each is a
// [FrameHead][pup bytes] frame appended to a flat byte vector, so a batch is
// one contiguous allocation instead of a vector of per-item payload vectors.
// Same-PE destinations skip packing entirely and go through the runtime's
// typed delivery.
//
// TRAM follows the runtime's location protocol (§II-D, DESIGN.md §17): a
// sender routes on what it knows (element here, learned location, else the
// hashed home).  When an item reaches the element's home and the element
// lives elsewhere, the home re-routes it and appends a location-update frame
// addressed to the item's inserting PE, so later items go straight to the
// owner.  Updates ride the same aggregation buffers and flushes as data
// items: learning costs no message of its own.
//
// Typed facade:
//   charm::tram::Stream<&Lp::recv_event> stream(rt, lps, {.buffer_items=64});
//   stream.send(dest_index, event);            // from any handler
//   stream.flush_all();                        // end of phase (then QD)

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "runtime/proxy.hpp"
#include "runtime/runtime.hpp"
#include "sim/paged_table.hpp"

namespace charm::tram {

struct Params {
  std::size_t buffer_items = 64;  ///< flush threshold per peer buffer (data items)
  std::size_t item_overhead = 8;  ///< modeled per-item framing bytes
};

/// Type-erased aggregation core (one per stream, state partitioned per PE).
class Core {
 public:
  Core(Runtime& rt, CollectionId target, Params params);

  /// Insert a typed item from the currently executing PE.  Local
  /// destinations are delivered through the typed fast path (no pack);
  /// remote ones are pupped straight into the peer's aggregation buffer.
  template <class T>
  void insert_typed(const ObjIndex& dest_idx, EntryId ep, DirectInvoker<T> inv,
                    const T& item) {
    const int pe = rt_.machine().current_pe();
    ++items_;
    const int dest = resolve_dest(pe, dest_idx);
    const FrameHead head{dest_idx, ep, dest, pe};
    if (dest == pe) {
      Collection& c = rt_.collection(col_);
      ArrayElementBase* elem = c.find(pe, dest_idx);
      rt_.charge(rt_.config().deliver_cost);
      if (elem != nullptr) {
        rt_.deliver_local_typed(c, *elem, ep, inv, item);
        return;
      }
      local_miss(pe, head, rt_.pack_pooled(item), /*flush_through=*/false);
      return;
    }
    // Reserve the frame head and pup the item in place behind it.
    const int peer = rt_.machine().topology().next_on_route(pe, dest);
    Buffer& buf = buffer_for(pe, peer);
    const std::size_t at = buf.frames.size();
    buf.frames.resize(at + sizeof(FrameHead));
    pup::pack_append(buf.frames, item);
    close_frame(pe, peer, buf, at, head, /*flush_through=*/false);
  }

  /// Flush every buffer on every PE and cascade through intermediate hops
  /// (phase end).  Completion is observable via Runtime::start_quiescence.
  void flush_all();

  Runtime& rt() const { return rt_; }

  /// Data items inserted (location updates excluded).
  std::uint64_t items_inserted() const { return items_; }
  std::uint64_t batches_sent() const { return batches_; }
  /// Mean data items per batch — the aggregation factor TRAM achieves.
  double aggregation() const {
    return batches_ ? static_cast<double>(routed_items_) / static_cast<double>(batches_) : 0.0;
  }
  /// Modeled wire bytes of all batch sends (frame payloads + per-frame
  /// overhead, location updates included; the Envelope header is charged by
  /// send_control on top).
  std::uint64_t batch_bytes() const { return batch_bytes_; }
  /// Location-update frames a home appended for a misdelivered item's sender.
  std::uint64_t location_updates() const { return updates_; }
  /// Items that reached a PE not hosting their element (re-routed there or
  /// handed to the point-send protocol).
  std::uint64_t misdelivered() const { return misdelivered_; }
  /// Control-plane traffic: the flush_all fan-out messages that tell every
  /// PE to drain its buffers, and their modeled bytes.  Together with
  /// batch_bytes this accounts for every byte TRAM puts on the wire, so
  /// benches can report aggregation overhead per item.
  std::uint64_t control_messages() const { return control_msgs_; }
  std::uint64_t control_bytes() const { return control_bytes_; }

 private:
  /// Entry id of a location-update frame: its payload is the owner PE
  /// (4 bytes) of the frame's index, for the PE the frame is addressed to.
  static constexpr EntryId kLocationUpdate = -2;

  /// Per-frame header preceding the pupped bytes in a batch buffer.
  /// Buffers never leave the (sequentially emulated) process, so host layout
  /// and padding are fine.
  struct FrameHead {
    ObjIndex idx{};
    EntryId ep = -1;
    std::int32_t dest_pe = 0;
    std::int32_t src_pe = 0;  ///< inserting PE, kept across relay hops
    std::uint32_t len = 0;
  };
  /// One aggregation buffer: concatenated frames plus running totals.
  struct Buffer {
    std::vector<std::byte> frames;
    std::size_t count = 0;          ///< frames, location updates included
    std::size_t updates = 0;        ///< location-update frames among them
    std::size_t payload_bytes = 0;  ///< frame payloads only, excluding frame heads
  };
  struct PeState {
    std::unordered_map<int, Buffer> buffers;  // keyed by peer PE
  };

  /// Destination PE from the sender's location knowledge: element here or a
  /// learned location, the home record (when this PE is the home), else the
  /// home PE.
  int resolve_dest(int pe, const ObjIndex& idx);
  /// Where an item goes after a local delivery miss, as the runtime's
  /// handle_point_miss decides it: off the home, the home; at the home, the
  /// home record's location (kInvalidPe or pe when the element is in transit
  /// or not placed yet).
  int better_location(int pe, const ObjIndex& idx);
  /// Local delivery of `head`'s item missed on PE pe: re-route it on the
  /// aggregated path when a better location is known (the home also teaches
  /// the inserting PE), else hand it to the point-send protocol, which
  /// buffers at the home until the element lands.
  void local_miss(int pe, const FrameHead& head, std::vector<std::byte> payload,
                  bool flush_through);
  /// Append a frame with an already-packed head.len-byte payload toward
  /// head.dest_pe.
  void route_packed(int pe, const FrameHead& head, const std::byte* data,
                    bool flush_through);
  /// Finish the frame whose head was reserved at `at` in `buf` (the peer
  /// buffer toward head.dest_pe): write the head with the payload length,
  /// count it, and flush when the buffer holds buffer_items data items.
  void close_frame(int pe, int peer, Buffer& buf, std::size_t at, FrameHead head,
                   bool flush_through);
  Buffer& buffer_for(int pe, int peer);
  void flush_buffer(int pe, int peer, bool flush_through);
  void flush_pe(int pe, bool flush_through);
  void deliver_batch(int pe, Buffer buf, bool flush_through);

  Runtime& rt_;
  CollectionId col_;
  Params params_;
  /// Per-PE buffer sets, paged on first touch: a stream over a P-PE machine
  /// costs memory only on the PEs that actually insert or relay items.
  sim::PagedTable<PeState> pes_;
  std::uint64_t items_ = 0;
  std::uint64_t routed_items_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batch_bytes_ = 0;
  std::uint64_t control_msgs_ = 0;
  std::uint64_t control_bytes_ = 0;
  std::uint64_t updates_ = 0;
  std::uint64_t misdelivered_ = 0;
};

/// Typed stream bound to one entry method of a chare array.
template <auto Mfp>
class Stream {
  using Traits = detail::MfpTraits<decltype(Mfp)>;

 public:
  using Element = typename Traits::Chare;
  using Item = typename Traits::Argument;

  template <class Ix>
  Stream(Runtime& rt, const ArrayProxy<Element, Ix>& target, Params params = {})
      : core_(std::make_shared<Core>(rt, target.id(), params)) {}

  template <class Ix>
  void send(const Ix& dest, const Item& item) const {
    core_->insert_typed(IndexTraits<Ix>::encode(dest), Registry::entry_of<Mfp>(),
                        Registry::direct_invoker<Mfp>(), item);
  }

  void flush_all() const { core_->flush_all(); }
  const Core& core() const { return *core_; }

 private:
  std::shared_ptr<Core> core_;
};

}  // namespace charm::tram
