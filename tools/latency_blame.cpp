// Latency-blame CLI: who owns each nanosecond of the virtio event path?
//
// Three modes, picked by the inputs:
//
//  * `latency_blame trace.bin` — read a raw ES2T binary trace (any bench
//    run with `--observe=<dir>` writes `<dir>/trace.bin`; `to_binary`
//    makes one from records), run the critical-path analyzer, and print
//    the markdown latency-budget table plus the worst-journey ledger.
//    `--json=<path>` additionally writes the es2-blame-v1 report.
//  * `latency_blame blame.json` — re-render an existing es2-blame-v1
//    report (e.g. `<dir>/blame.json` from `--observe=<dir>`) as the same
//    markdown table.
//  * `latency_blame --diff a.json b.json` — diff two es2-blame-v1 reports
//    and name the component whose share of the journey total grew the
//    most: the answer to "which stage regressed between these runs?".
//
// Exit codes: 0 = ok (diff mode: no component regressed by more than
// --threshold), 1 = diff found a regression past the threshold, 2 = usage
// or unreadable/malformed input.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "base/file.h"
#include "base/json.h"
#include "profile/blame.h"
#include "profile/blame_export.h"
#include "trace/export.h"
#include "trace/span.h"
#include "trace/trace.h"

using namespace es2;

namespace {

bool load_summary(const char* path, BlameSummary* out) {
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "latency_blame: cannot read %s\n", path);
    return false;
  }
  std::string error;
  if (!blame_summary_from_json(text, out, &error)) {
    std::fprintf(stderr, "latency_blame: %s: %s\n", path, error.c_str());
    return false;
  }
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: latency_blame <trace.bin> [--json=<out.json>] "
               "[--top=N] [--k=F]\n"
               "       latency_blame <blame.json>\n"
               "       latency_blame --diff <a.json> <b.json> "
               "[--threshold=F]\n"
               "  trace.bin, blame.json: written by any bench run with "
               "--observe=<dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> inputs;
  std::string json_out;
  bool diff = false;
  double threshold = 0.05;
  BlameOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--diff") == 0) {
      diff = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_out = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--top=", 6) == 0) {
      options.ledger_top_n =
          static_cast<int>(std::strtol(argv[i] + 6, nullptr, 10));
    } else if (std::strncmp(argv[i], "--k=", 4) == 0) {
      options.ledger_k = std::strtod(argv[i] + 4, nullptr);
    } else if (std::strncmp(argv[i], "--threshold=", 12) == 0) {
      threshold = std::strtod(argv[i] + 12, nullptr);
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      inputs.push_back(argv[i]);
    }
  }

  if (diff) {
    if (inputs.size() != 2) return usage();
    BlameSummary a, b;
    if (!load_summary(inputs[0], &a) || !load_summary(inputs[1], &b)) return 2;
    const BlameDiff d = diff_blame(a, b);
    std::printf("%s", render_blame_diff_markdown(d).c_str());
    if (!d.regressed.empty() && d.regressed_delta > threshold) {
      std::printf("REGRESSED: %s (+%.1f%% of journey total)\n",
                  d.regressed.c_str(), d.regressed_delta * 100.0);
      return 1;
    }
    std::printf("no component grew by more than %.1f%% of the total\n",
                threshold * 100.0);
    return 0;
  }

  if (inputs.size() != 1) return usage();
  std::string data;
  if (!read_file(inputs[0], &data)) {
    std::fprintf(stderr, "latency_blame: cannot read %s\n", inputs[0]);
    return 2;
  }

  std::vector<TraceRecord> records;
  if (read_binary(data, &records)) {
    std::vector<JourneySpan> journeys;
    build_spans(records, &journeys);
    const BlameBreakdown blame = analyze_blame(records, journeys, options);
    if (blame.journeys == 0) {
      std::fprintf(stderr, "latency_blame: %s holds no journeys\n",
                   inputs[0]);
      return 2;
    }
    std::printf("%s", render_blame_markdown(blame_summary(blame)).c_str());
    if (!json_out.empty()) {
      if (!write_file(json_out, blame_to_json_text(blame))) {
        std::fprintf(stderr, "latency_blame: cannot write %s\n",
                     json_out.c_str());
        return 2;
      }
      std::printf("[es2-blame-v1 report written to %s]\n", json_out.c_str());
    }
    return 0;
  }

  // Not an ES2T binary: try an existing es2-blame-v1 report.
  BlameSummary s;
  if (!load_summary(inputs[0], &s)) return 2;
  std::printf("%s", render_blame_markdown(s).c_str());
  return 0;
}
