#include "tram/tram.hpp"

#include <algorithm>
#include <utility>

namespace charm::tram {

Core::Core(Runtime& rt, CollectionId target, Params params)
    : rt_(rt),
      col_(target),
      params_(params),
      pes_(static_cast<std::size_t>(rt.npes())) {}

int Core::resolve_dest(int pe, const ObjIndex& idx) {
  // The runtime's own routing order (element here, then cached location),
  // plus the home-record consult when this PE is the home.  Location reads
  // probe: a PE with no PeLocal block knows nothing, exactly like a dense
  // lookup on empty tables.
  Collection& c = rt_.collection(col_);
  if (const int known = c.known_location(pe, idx); known != kInvalidPe) return known;
  int dest = rt_.home_pe(idx);
  const PeLocal* pl = c.local_if(pe);
  if (dest == pe && pl != nullptr) {
    auto hit = pl->home.find(idx);
    if (hit != pl->home.end() && hit->second.location != kInvalidPe)
      dest = hit->second.location;
  }
  return dest;
}

int Core::better_location(int pe, const ObjIndex& idx) {
  // Off the home, a miss means the sender's knowledge was stale: bounce to
  // the home, which re-routes the item and teaches its sender again (as
  // handle_point_miss does).  Following this PE's own learned record instead
  // could hand the item to a PE whose record points back here.
  const int home = rt_.home_pe(idx);
  if (home != pe) return home;
  const PeLocal* pl = rt_.collection(col_).local_if(pe);
  if (pl == nullptr) return kInvalidPe;
  auto it = pl->home.find(idx);
  if (it == pl->home.end() || it->second.in_transit) return kInvalidPe;
  return it->second.location;  // kInvalidPe or pe: the caller parks the item
}

void Core::local_miss(int pe, const FrameHead& head, std::vector<std::byte> payload,
                      bool flush_through) {
  ++misdelivered_;
  const int better = better_location(pe, head.idx);
  if (better == kInvalidPe || better == pe) {
    // Mid-migration or unknown: the point-send protocol buffers at the home
    // until the element lands.
    rt_.send_point(col_, head.idx, head.ep, std::move(payload));
    return;
  }
  const int src = head.src_pe;
  if (rt_.home_pe(head.idx) == pe && src != pe && src != better) {
    // The home teaches the inserting PE where the element lives, on the
    // aggregated path (the runtime's handle_point_miss does the same with a
    // control message).
    ++updates_;
    const std::int32_t owner = better;
    route_packed(pe, FrameHead{head.idx, kLocationUpdate, src, pe, sizeof owner},
                 reinterpret_cast<const std::byte*>(&owner), flush_through);
  }
  FrameHead fwd = head;
  fwd.dest_pe = better;
  fwd.len = static_cast<std::uint32_t>(payload.size());
  route_packed(pe, fwd, payload.data(), flush_through);
  rt_.release_payload(std::move(payload));
}

void Core::route_packed(int pe, const FrameHead& head, const std::byte* data,
                        bool flush_through) {
  const int peer = rt_.machine().topology().next_on_route(pe, head.dest_pe);
  Buffer& buf = buffer_for(pe, peer);
  const std::size_t at = buf.frames.size();
  buf.frames.resize(at + sizeof(FrameHead) + head.len);
  if (head.len != 0) std::memcpy(buf.frames.data() + at + sizeof(FrameHead), data, head.len);
  close_frame(pe, peer, buf, at, head, flush_through);
}

void Core::close_frame(int pe, int peer, Buffer& buf, std::size_t at, FrameHead head,
                       bool flush_through) {
  head.len = static_cast<std::uint32_t>(buf.frames.size() - at - sizeof(FrameHead));
  std::memcpy(buf.frames.data() + at, &head, sizeof(FrameHead));
  buf.payload_bytes += head.len;
  ++buf.count;
  if (head.ep == kLocationUpdate) {
    ++buf.updates;  // rides along: an update never flushes a buffer itself
    return;
  }
  if (buf.count - buf.updates >= params_.buffer_items) flush_buffer(pe, peer, flush_through);
}

Core::Buffer& Core::buffer_for(int pe, int peer) {
  auto& buffers = pes_.ref(static_cast<std::size_t>(pe)).buffers;
  auto it = buffers.find(peer);
  if (it == buffers.end()) {
    it = buffers.emplace(peer, Buffer{}).first;
    it->second.frames = rt_.acquire_payload(0);
  }
  return it->second;
}

void Core::flush_buffer(int pe, int peer, bool flush_through) {
  PeState* state = pes_.probe(static_cast<std::size_t>(pe));
  if (state == nullptr) return;  // never buffered anything: nothing to flush
  auto it = state->buffers.find(peer);
  if (it == state->buffers.end() || it->second.count == 0) return;
  Buffer buf = std::move(it->second);
  state->buffers.erase(it);

  const std::size_t bytes = buf.payload_bytes + buf.count * params_.item_overhead;
  ++batches_;
  routed_items_ += buf.count - buf.updates;
  batch_bytes_ += bytes;

  rt_.send_control(peer, bytes, [this, peer, flush_through, buf = std::move(buf)]() mutable {
    deliver_batch(peer, std::move(buf), flush_through);
  });
}

void Core::deliver_batch(int pe, Buffer buf, bool flush_through) {
  Collection& c = rt_.collection(col_);
  std::size_t off = 0;
  while (off < buf.frames.size()) {
    FrameHead head;
    std::memcpy(&head, buf.frames.data() + off, sizeof(FrameHead));
    const std::byte* data = buf.frames.data() + off + sizeof(FrameHead);
    off += sizeof(FrameHead) + head.len;
    if (head.dest_pe != pe) {
      route_packed(pe, head, data, flush_through);
    } else if (head.ep == kLocationUpdate) {
      std::int32_t owner;
      std::memcpy(&owner, data, sizeof owner);
      // A shrink may have retired the owner while the update was in flight.
      if (owner < rt_.active_pes()) c.learn_location(pe, head.idx, owner);
    } else if (ArrayElementBase* elem = c.find(pe, head.idx)) {
      rt_.charge(rt_.config().deliver_cost);
      rt_.deliver_local(c, *elem, head.ep, data, head.len);
    } else {
      rt_.charge(rt_.config().deliver_cost);
      std::vector<std::byte> payload = rt_.acquire_payload(head.len);
      payload.insert(payload.end(), data, data + head.len);
      local_miss(pe, head, std::move(payload), flush_through);
    }
  }
  rt_.release_payload(std::move(buf.frames));
  if (flush_through) flush_pe(pe, /*flush_through=*/true);
}

void Core::flush_pe(int pe, bool flush_through) {
  PeState* state = pes_.probe(static_cast<std::size_t>(pe));
  if (state == nullptr) return;
  std::vector<int> peers;
  peers.reserve(state->buffers.size());
  for (const auto& [peer, buf] : state->buffers)
    if (buf.count != 0) peers.push_back(peer);
  std::sort(peers.begin(), peers.end());  // deterministic flush order
  for (int peer : peers) flush_buffer(pe, peer, flush_through);
}

void Core::flush_all() {
  for (int pe = 0; pe < rt_.npes(); ++pe) {
    ++control_msgs_;
    control_bytes_ += 16;
    rt_.send_control(pe, 16, [this, pe]() { flush_pe(pe, /*flush_through=*/true); });
  }
}

}  // namespace charm::tram
