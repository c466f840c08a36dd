// Example: a memcached server VM under memaslap load (the paper's Fig. 8a
// scenario), comparing two deployments interactively.
//
//   $ ./memcached_server [--fast] [--config baseline|pi|pi_h|pi_h_r]
//
// Demonstrates the public API end to end: building the oversubscribed
// testbed, installing an application workload, applying an ES2
// configuration, and reading out throughput/latency.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "apps/memcached.h"
#include "base/strings.h"
#include "harness/testbed.h"
#include "example_args.h"

using namespace es2;

namespace {

std::optional<Es2Config> config_by_name(const std::string& name) {
  if (name == "baseline") return Es2Config::baseline();
  if (name == "pi") return Es2Config::pi();
  if (name == "pi_h") return Es2Config::pi_h();
  if (name == "pi_h_r") return Es2Config::pi_h_r();
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  Es2Config config = Es2Config::pi_h_r();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else if (std::strcmp(argv[i], "--config") == 0) {
      const char* name = example::value_of(argc, argv, i);
      const std::optional<Es2Config> named = config_by_name(name);
      if (!named) {
        example::refuse(argv[0], name,
                        "--config needs baseline|pi|pi_h|pi_h_r, got");
      }
      config = *named;
    } else {
      example::refuse(argv[0], argv[i], "unknown flag");
    }
  }

  // The paper's macro testbed: four 4-vCPU VMs time-sharing four cores,
  // CPU-burn everywhere, the tested VM runs memcached.
  TestbedOptions options;
  options.config = config;
  options.num_vms = 4;
  options.vcpus_per_vm = 4;
  options.stack_vms = true;
  Testbed testbed(options);

  constexpr std::uint64_t kBaseFlow = 1000;
  constexpr int kClientThreads = 16;
  MemcachedServer server(testbed.guest(), testbed.frontend(), kBaseFlow,
                         kClientThreads, /*workers=*/4);

  MemaslapClient::Params load;
  load.threads = kClientThreads;
  load.concurrency_per_thread = 16;  // 256 concurrent requests
  load.get_ratio = 0.9;
  MemaslapClient client(testbed.peer(), kBaseFlow, load, options.seed);

  testbed.start();
  client.start();

  const SimDuration warmup = fast ? msec(150) : msec(400);
  const SimDuration measure = fast ? msec(400) : sec(2);
  testbed.sim().run_for(warmup);
  client.begin_window(testbed.sim().now());
  testbed.tested_vm().begin_stats_window();
  testbed.sim().run_for(measure);

  const SimTime now = testbed.sim().now();
  const ExitStats exits = testbed.tested_vm().aggregate_stats();
  std::printf("memcached VM under %s\n", options.config.name().c_str());
  std::printf("  throughput : %s ops/s (%.0f Mb/s of responses)\n",
              with_commas(static_cast<std::int64_t>(client.ops_per_sec(now)))
                  .c_str(),
              client.response_mbps(now));
  std::printf("  latency    : %s\n", client.latency().summary("ms").c_str());
  std::printf("  exits      : %s\n", exits.summary(now).c_str());
  if (options.config.redirection) {
    auto* red = testbed.es2().redirector();
    std::printf("  redirection: %lld via sticky, %lld via lightest-online, "
                "%lld via offline prediction\n",
                static_cast<long long>(red->via_sticky()),
                static_cast<long long>(red->via_online()),
                static_cast<long long>(red->via_offline_prediction()));
  }
  return 0;
}
