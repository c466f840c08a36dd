#include "reference.h"

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kQueueDepth = 4096;
constexpr std::size_t kLiveCallbacks = 512;
constexpr int kOpsPerBatch = 10000;

volatile std::uint64_t g_sink = 0;

std::uint64_t next_random(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// A heap-allocated callback record of 32 to 144 bytes.
struct Callback {
  std::uint64_t capture[4];
};

using Handler = void (*)(const Callback&);
const Handler kHandlers[] = {
    [](const Callback& c) { g_sink = g_sink + c.capture[0]; },
    [](const Callback& c) { g_sink = g_sink ^ c.capture[1]; },
    [](const Callback& c) { g_sink = g_sink * 3 + c.capture[2]; },
    [](const Callback& c) { g_sink = g_sink - c.capture[3]; },
};

struct ReferenceState {
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  using Entry = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  std::vector<Callback*> live;

  ReferenceState() : live(kLiveCallbacks, nullptr) {
    std::vector<Entry> storage;
    storage.reserve(kQueueDepth + 1);
    queue = decltype(queue)(std::greater<>(), std::move(storage));
  }

  /// One operation: an event pushed and, past the queue depth, the
  /// earliest popped and its handler called on a live callback record;
  /// then one record allocated in place of an older one, which is freed.
  void op() {
    const std::uint64_t key = next_random(rng) >> 16;
    queue.emplace(key, static_cast<std::uint32_t>(rng));
    if (queue.size() > kQueueDepth) {
      const std::uint32_t tag = queue.top().second;
      queue.pop();
      if (const Callback* c = live[tag % kLiveCallbacks]) {
        kHandlers[(tag >> 9) % 4](*c);
      }
    }
    auto* c = static_cast<Callback*>(
        std::malloc(sizeof(Callback) + (key % 8) * 16));
    if (c == nullptr) std::abort();
    c->capture[0] = key;
    c->capture[1] = rng;
    c->capture[2] = key ^ rng;
    c->capture[3] = key + rng;
    Callback*& slot = live[(key >> 3) % kLiveCallbacks];
    std::free(slot);
    slot = c;
  }
};

}  // namespace

double reference_ns_per_op() {
  static ReferenceState state;
  const double t0 = now_ns();
  for (int i = 0; i < kOpsPerBatch; ++i) state.op();
  return (now_ns() - t0) / kOpsPerBatch;
}

}  // namespace perfbench
