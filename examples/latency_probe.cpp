// Example: latency probing of a consolidated VM — the paper's Fig. 7
// scenario as a tool. Prints the RTT time series for each configuration so
// the scheduling-delay spikes (and their disappearance under redirection)
// are visible sample by sample.
//
//   $ ./latency_probe [--fast] [--samples N]
#include <cstdio>
#include <cstring>

#include "apps/ping.h"
#include "base/strings.h"
#include "harness/testbed.h"
#include "example_args.h"

using namespace es2;

int main(int argc, char** argv) {
  int samples = 40;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      samples = 20;
    } else if (std::strcmp(argv[i], "--samples") == 0) {
      samples = example::positive_int(argv[0], "--samples",
                                      example::value_of(argc, argv, i));
    } else {
      example::refuse(argv[0], argv[i], "unknown flag");
    }
  }

  for (const Es2Config cfg :
       {Es2Config::baseline(), Es2Config::pi(), Es2Config::pi_h_r()}) {
    TestbedOptions options;
    options.config = cfg;
    options.num_vms = 4;
    options.vcpus_per_vm = 4;
    options.stack_vms = true;
    Testbed testbed(options);
    PingResponder responder(testbed.guest(), testbed.frontend(), 7);
    PingClient ping(testbed.peer(), 7, msec(100));
    testbed.start();
    ping.start();
    testbed.sim().run_for(msec(100) * (samples + 2));

    std::printf("\n%s — %d RTT samples (ms):\n", cfg.name().c_str(),
                static_cast<int>(ping.samples().size()));
    // A terminal sparkline of the series: one column per sample.
    for (size_t i = 0; i < ping.samples().size(); ++i) {
      const double ms = static_cast<double>(ping.samples()[i]) / 1e6;
      const int bars = static_cast<int>(ms * 10);  // 0.1ms per '#'
      std::printf("  %3zu %7.3f %s\n", i, ms,
                  std::string(static_cast<size_t>(std::min(bars, 60)), '#')
                      .c_str());
    }
    std::printf("  summary: %s\n", ping.rtt().summary("ms").c_str());
  }
  std::printf("\nThe baseline's spikes are vCPU scheduling delay (the\n"
              "interrupt's affinity target was descheduled); ES2's\n"
              "redirection sends each interrupt to a vCPU that is online.\n");
  return 0;
}
