// Contract tests for the pooled event-path objects: Callback (inline vs
// FramePool storage, move-only ownership, release on every exit path,
// zero steady-state allocation, cross-thread release) and the intrusive
// PacketPtr handle (refcount, copy/move, release to the pool, unchanged
// snapshot bytes). This binary links es2_alloc_hook.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "base/alloc_hook.h"
#include "net/packet.h"
#include "sim/callback.h"
#include "sim/frame_pool.h"
#include "snapshot/snapshot.h"

namespace es2 {
namespace {

using Fn = Callback<void()>;

/// Counts live instances; the callable shape used across these tests.
struct Tracked {
  explicit Tracked(int* live, int* calls = nullptr) : live(live), calls(calls) {
    ++*live;
  }
  Tracked(Tracked&& o) noexcept : live(o.live), calls(o.calls) { ++*live; }
  Tracked(const Tracked& o) : live(o.live), calls(o.calls) { ++*live; }
  ~Tracked() { --*live; }
  void operator()() const {
    if (calls != nullptr) ++*calls;
  }
  int* live;
  int* calls;
};

/// A Tracked padded past the inline buffer, so it lands in a frame.
struct BigTracked : Tracked {
  using Tracked::Tracked;
  char pad[64] = {};
};

static_assert(sizeof(Fn) == 32);
static_assert(!std::is_copy_constructible_v<Fn>);
static_assert(!std::is_copy_assignable_v<Fn>);
static_assert(std::is_nothrow_move_constructible_v<Fn>);
static_assert(Fn::stored_inline<Tracked>);
static_assert(!Fn::stored_inline<BigTracked>);

// ---------------------------------------------------------------------------
// Callback
// ---------------------------------------------------------------------------

TEST(Callback, SmallCallablesStayInlineLargeOnesUseAFrame) {
  int x = 0;
  Fn small = [&x] { ++x; };
  EXPECT_TRUE(small);
  EXPECT_FALSE(small.pooled());
  small();
  EXPECT_EQ(x, 1);

  // The model's typical wrapper: a continuation capturing another one.
  Fn wrapped = [&x, inner = std::move(small)] {
    inner();
    x += 10;
  };
  EXPECT_TRUE(wrapped.pooled());
  EXPECT_FALSE(small);  // a moved-from Callback is empty
  wrapped();
  EXPECT_EQ(x, 12);

  Callback<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 3), 5);
  Callback<void(bool)> with_arg = [&x](bool b) { x = b ? 100 : -100; };
  with_arg(true);
  EXPECT_EQ(x, 100);
}

TEST(Callback, MoveTransfersOwnershipOfMoveOnlyCaptures) {
  auto owned = std::make_unique<int>(7);
  int seen = 0;
  Fn a = [p = std::move(owned), &seen] { seen = *p; };
  Fn b = std::move(a);
  EXPECT_FALSE(a);  // a moved-from Callback is empty
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(seen, 7);

  int live = 0;
  int calls = 0;
  Fn c = BigTracked(&live, &calls);
  Fn d = Tracked(&live, &calls);
  EXPECT_EQ(live, 2);
  d = std::move(c);  // releases d's old callable, adopts c's frame
  EXPECT_EQ(live, 1);
  EXPECT_TRUE(d.pooled());
  d();
  EXPECT_EQ(calls, 1);
  d = nullptr;
  EXPECT_EQ(live, 0);
  EXPECT_FALSE(d);
  EXPECT_TRUE(d == nullptr);
}

TEST(Callback, DestroyingWithoutInvokingReleasesTheCallable) {
  int live = 0;
  int calls = 0;
  {
    Fn inline_cb = Tracked(&live, &calls);
    Fn pooled_cb = BigTracked(&live, &calls);
    EXPECT_EQ(live, 2);
  }
  EXPECT_EQ(live, 0);
  EXPECT_EQ(calls, 0);
}

TEST(Callback, ReassigningFromItsOwnCaptureIsSafe) {
  int calls = 0;
  Fn inner = [&calls] { ++calls; };
  Fn outer = [inner = std::move(inner)]() mutable { inner(); };
  // `outer` owns the continuation it is being replaced by: the old
  // callable must die only after the new one has been taken.
  Fn next = [&calls] { calls += 100; };
  Fn chain = [next = std::move(next)]() mutable { next(); };
  outer = std::move(chain);
  outer();
  EXPECT_EQ(calls, 100);
}

struct Thrower {
  int* live;
  explicit Thrower(int* l) : live(l) { ++*live; }
  Thrower(Thrower&& o) noexcept : live(o.live) { ++*live; }
  ~Thrower() { --*live; }
  char pad[48] = {};
  void operator()() const { throw std::runtime_error("boom"); }
};

struct CopyFailed {};  // allocation-free exception (no message string)

struct ThrowOnCopy {
  ThrowOnCopy() = default;
  ThrowOnCopy(const ThrowOnCopy&) { throw CopyFailed{}; }
  ThrowOnCopy(ThrowOnCopy&&) noexcept = default;
  char pad[48] = {};
  void operator()() const {}
};

TEST(Callback, ThrowingCallableIsStillReleased) {
  int live = 0;
  {
    Fn cb = Thrower(&live);
    ASSERT_TRUE(cb.pooled());
    EXPECT_THROW(cb(), std::runtime_error);
    EXPECT_EQ(live, 1);  // a throwing call leaves the callable owned
  }
  EXPECT_EQ(live, 0);

  // A copy constructor that throws mid-construction hands its frame back.
  const ThrowOnCopy source;
  { Fn warm = ThrowOnCopy(); }
  const std::size_t slabs = FramePool::slabs_allocated();
  test::AllocationCounter allocs;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_THROW(Fn cb = source, CopyFailed);
  }
  EXPECT_EQ(allocs.delta(), 0);
  EXPECT_EQ(FramePool::slabs_allocated(), slabs);
}

TEST(Callback, FramesAreReusedWithZeroAllocationsAfterWarmup) {
  std::int64_t sink = 0;
  auto run_chain = [&sink] {
    // Three-deep wrapper chain, as vCPU exec -> thread segment -> NAPI.
    Fn leaf = [&sink] { ++sink; };
    Fn mid = [&sink, leaf = std::move(leaf)] {
      leaf();
      sink += 2;
    };
    Fn top = [&sink, mid = std::move(mid), pad = 0L] {
      mid();
      sink += 3 + pad;
    };
    Fn moved = std::move(top);
    moved();
  };
  run_chain();  // warm-up: may carve slabs
  test::AllocationCounter allocs;
  for (int i = 0; i < 10000; ++i) run_chain();
  EXPECT_EQ(allocs.delta(), 0);
  EXPECT_EQ(sink, 6 * 10001);
}

TEST(Callback, FrameAllocatedOnOneThreadIsReleasedOnAnother) {
  constexpr int kCount = 2000;
  int live = 0;
  int calls = 0;
  std::vector<Fn> made;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) made.push_back(BigTracked(&live, &calls));
  });
  producer.join();
  EXPECT_EQ(live, kCount);
  std::thread consumer([&] {
    for (Fn& cb : made) cb();
    made.clear();  // frames join this thread's lists, then its exit hands
                   // them to the shared orphan lists
  });
  consumer.join();
  EXPECT_EQ(live, 0);
  EXPECT_EQ(calls, kCount);
  // A third thread reuses the handed-over frames instead of growing.
  const std::size_t slabs = FramePool::slabs_allocated();
  std::thread reuser([&] {
    for (int i = 0; i < kCount; ++i) made.push_back(BigTracked(&live, &calls));
    made.clear();
  });
  reuser.join();
  EXPECT_EQ(FramePool::slabs_allocated(), slabs);

  // Raw frames cross threads the same way, and come back intact.
  constexpr std::size_t kCls = FramePool::class_of(96);
  std::vector<void*> frames;
  std::thread allocator([&] {
    for (int i = 0; i < 100; ++i) {
      auto* f = static_cast<unsigned char*>(FramePool::allocate(kCls));
      f[0] = static_cast<unsigned char>(i);
      frames.push_back(f);
    }
  });
  allocator.join();
  std::thread releaser([&] {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(static_cast<unsigned char*>(frames[i])[0], i);
      FramePool::release(frames[i], kCls);
    }
  });
  releaser.join();
}

TEST(FramePool, ReleasedFramesArePoisonedUntilReused) {
  constexpr std::size_t kCls = FramePool::class_of(64);
  void* frame = FramePool::allocate(kCls);
  FramePool::release(frame, kCls);
#if defined(__SANITIZE_ADDRESS__)
  // A use-after-release must still fault even though the pool keeps the
  // memory: the whole frame is poisoned while it sits on a free list.
  EXPECT_TRUE(__asan_address_is_poisoned(frame));
  EXPECT_TRUE(__asan_address_is_poisoned(static_cast<char*>(frame) + 63));
#endif
  void* again = FramePool::allocate(kCls);
  EXPECT_EQ(again, frame);  // LIFO reuse
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_EQ(__asan_region_is_poisoned(again, 64), nullptr);
#endif
  FramePool::release(again, kCls);
}

// ---------------------------------------------------------------------------
// PacketPtr
// ---------------------------------------------------------------------------

Packet sample_packet() {
  Packet p;
  p.proto = Proto::kTcp;
  p.flow = 0x1122334455667788ull;
  p.wire_size = 1078;
  p.payload = 1024;
  p.seq = 987654321ull;
  p.ack_seq = 123456789ull;
  p.flags.syn = true;
  p.flags.fin = true;
  p.sent_at = 42424242;
  p.probe_id = 77;
  return p;
}

TEST(PacketPtr, RefcountFollowsCopiesAndMoves) {
  PacketPtr a = make_packet(sample_packet());
  ASSERT_TRUE(a);
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(a->flow, 0x1122334455667788ull);
  EXPECT_EQ((*a).payload, 1024);

  PacketPtr b = a;
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.get(), b.get());

  PacketPtr c = std::move(b);
  EXPECT_TRUE(b == nullptr);
  EXPECT_FALSE(b);          
  EXPECT_EQ(b.get(), nullptr);
  EXPECT_EQ(c.use_count(), 2u);

  c = nullptr;
  EXPECT_EQ(a.use_count(), 1u);
  PacketPtr d;
  d = a;
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_TRUE(d != nullptr);
  EXPECT_FALSE(d != a);
}

TEST(PacketPtr, LastHandleReturnsThePacketToThePool) {
  const Packet* first = nullptr;
  {
    PacketPtr p = make_packet(sample_packet());
    first = p.get();
    PacketPtr copy = p;
  }
  // The frame went back on this thread's free list, so the next packet
  // reuses it.
  PacketPtr again = make_packet(sample_packet());
  EXPECT_EQ(again.get(), first);
  again = nullptr;
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_TRUE(__asan_address_is_poisoned(first));
#endif

  test::AllocationCounter allocs;
  for (int i = 0; i < 10000; ++i) {
    PacketPtr p = make_packet(sample_packet());
    PacketPtr q = p;
    p = nullptr;
  }
  EXPECT_EQ(allocs.delta(), 0);
}

TEST(PacketPtr, SnapshotBytesMatchTheSharedPtrEncoding) {
  SnapshotWriter w;
  snapshot_packet(w, make_packet(sample_packet()));
  snapshot_packet(w, PacketPtr());
  // Digest of the same two records written by the shared_ptr<const
  // Packet> handle this type replaced.
  EXPECT_EQ(w.byte_size(), 62u);
  EXPECT_EQ(w.hash(), 0xaf4678ce09fa8d1eull);
}

}  // namespace
}  // namespace es2
