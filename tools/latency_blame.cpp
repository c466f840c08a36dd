// Latency-blame CLI: who owns each nanosecond of the virtio event path?
//
// Two modes, both over es2-blame-v1 reports (any bench run with
// `--observe=<dir>` writes `<dir>/blame.json`):
//
//  * `latency_blame blame.json` — render the report as the markdown
//    latency-budget table.
//  * `latency_blame --diff a.json b.json` — diff two reports and name the
//    component whose share of the journey total grew the most: the answer
//    to "which stage regressed between these runs?".
//
// Exit codes: 0 = ok (diff mode: no component regressed by more than
// --threshold), 1 = diff found a regression past the threshold, 2 = usage
// (including a --threshold= that is not a non-negative number) or
// unreadable/malformed input.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <system_error>
#include <vector>

#include "base/file.h"
#include "profile/blame_export.h"

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
               "usage: latency_blame <blame.json>\n"
               "       latency_blame --diff <a.json> <b.json> "
               "[--threshold=F]\n"
               "  blame.json: written by any bench run with "
               "--observe=<dir>\n"
               "  F: a non-negative fraction of the journey total "
               "(default 0.05)\n");
  return 2;
}

/// Parses a whole non-negative finite number; false on anything else.
bool parse_threshold(const char* text, double* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out) && *out >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> inputs;
  bool diff = false;
  double threshold = 0.05;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--diff") == 0) {
      diff = true;
    } else if (std::strncmp(argv[i], "--threshold=", 12) == 0) {
      if (!parse_threshold(argv[i] + 12, &threshold)) {
        std::fprintf(stderr, "latency_blame: bad %s\n", argv[i]);
        return usage();
      }
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
  BlameSummary s;
  if (!load_summary(inputs[0], &s)) return 2;
  std::printf("%s", render_blame_markdown(s).c_str());
  return 0;
}
