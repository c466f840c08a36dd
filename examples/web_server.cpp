// Example: an Apache-style web server VM under two kinds of load — steady
// ApacheBench traffic and an httperf connection-rate ramp (the paper's
// Fig. 8b + Fig. 9 scenarios in one program).
//
//   $ ./web_server [--fast]
#include <cstdio>

#include "base/strings.h"
#include "base/table.h"
#include "harness/experiments.h"
#include "example_args.h"

using namespace es2;

int main(int argc, char** argv) {
  const bool fast = es2::example::fast_only(argc, argv);

  std::printf("Part 1: ApacheBench throughput, Baseline vs full ES2\n");
  Table t({"Config", "req/s", "Mb/s"});
  for (const Es2Config cfg : {Es2Config::baseline(), Es2Config::pi_h_r()}) {
    ApacheOptions o;
    o.config = cfg;
    o.warmup = fast ? msec(200) : msec(400);
    o.measure = fast ? msec(400) : sec(1);
    const ApacheResult r = run_apache(o);
    t.add_row({cfg.name(),
               with_commas(static_cast<std::int64_t>(r.requests_per_sec)),
               fixed(r.throughput_mbps, 0)});
  }
  std::printf("%s", t.render().c_str());

  std::printf("\nPart 2: httperf connection-rate ramp (connect time)\n");
  Table t2({"rate", "Baseline avg", "ES2 avg"});
  for (const double rate : {1200.0, 1900.0, 2400.0}) {
    double avg[2];
    int i = 0;
    for (const Es2Config cfg : {Es2Config::baseline(), Es2Config::pi_h_r()}) {
      HttperfOptions o;
      o.config = cfg;
      o.rate_per_sec = rate;
      o.duration = fast ? sec(1) : sec(2);
      avg[i++] = run_httperf(o).avg_connect_ms;
    }
    t2.add_row({fixed(rate, 0) + "/s", fixed(avg[0], 2) + "ms",
                fixed(avg[1], 2) + "ms"});
  }
  std::printf("%s", t2.render().c_str());
  std::printf("\nPast the baseline's knee the SYN backlog overflows and 1s\n"
              "SYN retransmissions blow up the mean connect time; ES2's\n"
              "extra event-path headroom moves the knee to higher rates.\n");
  return 0;
}
