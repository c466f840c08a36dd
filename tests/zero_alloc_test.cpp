// Whole-model allocation gate: once a stream is warm, the simulated event
// path (vCPU exits and segments, vhost turns, NAPI, virtqueues, packets,
// CFS) runs without touching the heap. This binary links es2_alloc_hook.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "apps/netperf.h"
#include "base/alloc_hook.h"
#include "harness/testbed.h"

namespace es2 {
namespace {

constexpr std::uint64_t kFlow = 100;

struct Stack {
  const char* name;
  Es2Config (*config)();
};
const Stack kStacks[] = {
    {"Baseline", [] { return Es2Config::baseline(); }},
    {"PI", [] { return Es2Config::pi(); }},
    {"PIH", [] { return Es2Config::pi_h(); }},
    {"PIHR", [] { return Es2Config::pi_h_r(); }},
};

class ZeroAllocPath
    : public ::testing::TestWithParam<std::tuple<int, Proto>> {};

TEST_P(ZeroAllocPath, MeasureWindowAllocatesAtMostOnePerHundredEvents) {
  const auto [stack, proto] = GetParam();
  // The micro topology (one 1-vCPU VM, vhost on its own core) with a
  // VM -> peer netperf stream, as run_stream builds it.
  TestbedOptions o;
  o.config = kStacks[stack].config();
  o.seed = 1;
  Testbed tb(o);
  NetperfSender sender(tb.guest(), tb.frontend(), kFlow, proto, 1024, 0);
  tb.guest().add_task(sender);
  PeerStreamReceiver receiver(tb.peer(), kFlow, proto);
  tb.start();
  tb.sim().run_for(msec(50));  // warm-up: pools and rings reach steady size

  const std::uint64_t fired0 = tb.sim().queue().stats().fired;
  const std::int64_t sent0 = sender.packets_sent();
  test::AllocationCounter allocs;
  tb.sim().run_for(msec(200));
  const std::int64_t allocated = allocs.delta();
  const std::uint64_t fired = tb.sim().queue().stats().fired - fired0;

  ASSERT_GT(sender.packets_sent() - sent0, 1000);  // the stream really ran
  EXPECT_LE(static_cast<double>(allocated), 0.01 * static_cast<double>(fired))
      << allocated << " allocations over " << fired << " events";
}

INSTANTIATE_TEST_SUITE_P(
    MicroStreams, ZeroAllocPath,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(Proto::kTcp, Proto::kUdp)),
    [](const ::testing::TestParamInfo<ZeroAllocPath::ParamType>& info) {
      return std::string(kStacks[std::get<0>(info.param)].name) +
             (std::get<1>(info.param) == Proto::kTcp ? "Tcp" : "Udp");
    });

}  // namespace
}  // namespace es2
