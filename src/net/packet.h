// Network packet model.
//
// Packets are metadata-only (no payload bytes are simulated): enough for
// the mini TCP/UDP stacks and the workload generators to reproduce the
// traffic patterns the paper's benchmarks create — streams with ACK
// clocking, request/response exchanges, and connection handshakes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "base/units.h"
#include "sim/frame_pool.h"
#include "snapshot/snapshot.h"

namespace es2 {

inline constexpr Bytes kMtu = 1500;          // paper: default MTU
inline constexpr Bytes kTcpUdpHeader = 54;   // eth + IP + TCP-ish framing

enum class Proto : std::uint8_t { kTcp, kUdp, kIcmp };

/// TCP-ish control flags; meaningful only when proto == kTcp.
struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
};

struct Packet {
  Proto proto = Proto::kUdp;
  std::uint64_t flow = 0;       // connection / stream id
  Bytes wire_size = 0;          // bytes on the wire (headers included)
  Bytes payload = 0;            // application payload bytes
  std::uint64_t seq = 0;        // cumulative byte sequence (TCP) or pkt no.
  std::uint64_t ack_seq = 0;    // cumulative ACK (TCP)
  TcpFlags flags;
  SimTime sent_at = 0;          // stamped by the sender for RTT metrics
  std::uint64_t probe_id = 0;   // echo/request correlation (ICMP, RPC)
};

/// Shared, immutable handle to a packet: the queues, rings and events a
/// packet passes through each hold one. An intrusive handle over a
/// FramePool frame (sim/frame_pool.h) with a non-atomic count — a packet
/// never leaves the single-threaded world that made it — so creating,
/// passing and dropping packets performs no heap allocation once the pool
/// is warm. The last handle to go returns the frame to the pool.
class PacketPtr {
 public:
  PacketPtr() noexcept = default;
  PacketPtr(std::nullptr_t) noexcept {}
  PacketPtr(const PacketPtr& other) noexcept : box_(other.box_) {
    if (box_ != nullptr) ++box_->refs;
  }
  PacketPtr(PacketPtr&& other) noexcept
      : box_(std::exchange(other.box_, nullptr)) {}
  PacketPtr& operator=(PacketPtr other) noexcept {
    std::swap(box_, other.box_);
    return *this;
  }
  ~PacketPtr() {
    if (box_ != nullptr && --box_->refs == 0) {
      box_->~Box();
      FramePool::release(box_, kClass);
    }
  }

  const Packet* get() const noexcept {
    return box_ != nullptr ? &box_->packet : nullptr;
  }
  const Packet& operator*() const noexcept { return box_->packet; }
  const Packet* operator->() const noexcept { return &box_->packet; }
  explicit operator bool() const noexcept { return box_ != nullptr; }
  friend bool operator==(const PacketPtr& a, const PacketPtr& b) noexcept {
    return a.box_ == b.box_;
  }
  friend bool operator==(const PacketPtr& a, std::nullptr_t) noexcept {
    return a.box_ == nullptr;
  }

  /// Handles sharing this packet (0 for a null handle).
  std::uint32_t use_count() const noexcept {
    return box_ != nullptr ? box_->refs : 0;
  }

 private:
  struct Box {
    Packet packet;
    std::uint32_t refs;
  };
  static constexpr std::size_t kClass = FramePool::class_of(sizeof(Box));

  friend PacketPtr make_packet(Packet p);

  Box* box_ = nullptr;
};

inline PacketPtr make_packet(Packet p) {
  PacketPtr ptr;
  ptr.box_ = ::new (FramePool::allocate(PacketPtr::kClass))
      PacketPtr::Box{std::move(p), 1};
  return ptr;
}

/// Serializes one packet's metadata (or a null marker) into a snapshot.
/// Shared by every component that queues PacketPtrs, so all snapshots
/// agree on the encoding.
inline void snapshot_packet(SnapshotWriter& w, const PacketPtr& p) {
  w.put_bool(p != nullptr);
  if (p == nullptr) return;
  w.put_u8(static_cast<std::uint8_t>(p->proto));
  w.put_u64(p->flow);
  w.put_i64(p->wire_size);
  w.put_i64(p->payload);
  w.put_u64(p->seq);
  w.put_u64(p->ack_seq);
  w.put_bool(p->flags.syn);
  w.put_bool(p->flags.ack);
  w.put_bool(p->flags.fin);
  w.put_i64(p->sent_at);
  w.put_u64(p->probe_id);
}

/// RSS flow hash (FNV-1a). The model's flow id already identifies a
/// connection — it stands in for the src/dst address+port of a real
/// 5-tuple; the protocol completes it. Deterministic across runs and
/// platforms, so same-seed steering decisions are reproducible.
inline std::uint32_t rss_hash(Proto proto, std::uint64_t flow) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(proto));
  mix(flow);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

/// Number of MTU-sized segments a message of `bytes` payload occupies.
constexpr int segments_for(Bytes bytes) {
  const Bytes per_seg = kMtu - kTcpUdpHeader;
  if (bytes <= 0) return 1;
  return static_cast<int>((bytes + per_seg - 1) / per_seg);
}

}  // namespace es2
