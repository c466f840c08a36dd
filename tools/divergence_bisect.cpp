// Divergence bisector: where did two same-seed runs split, and whose
// fault was it?
//
// Input: two es2-hash-v1 JSON files: `<dir>/hashes.json` from any bench
// run with `--observe=<dir>`, or a series harvested via
// `Testbed::hash_log()`. Each records, per
// epoch of simulated time, an FNV digest of every registered component
// plus the folded world digest. Two deterministic same-seed runs must
// produce identical series; when they do not, the first divergent epoch
// bounds the bug in time and the component column(s) whose digest split
// name the guilty subsystem — "cfs diverged at epoch 31 (t=310ms)" is a
// far smaller haystack than "the CSV differs".
//
// Exit codes: 0 = identical series, 1 = divergence found, 2 = usage or
// incomparable inputs (different epoch period / component sets).
//
// Usage: divergence_bisect A.json B.json [--quiet]
#include <cstdio>
#include <cstring>
#include <string>

#include "base/file.h"
#include "snapshot/state_hash.h"

using namespace es2;

namespace {

bool load_series(const char* path, HashSeries* out) {
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "divergence_bisect: cannot read %s\n", path);
    return false;
  }
  std::string error;
  if (!HashSeries::parse(text, out, &error)) {
    std::fprintf(stderr, "divergence_bisect: %s: %s\n", path, error.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path_a = nullptr;
  const char* path_b = nullptr;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (path_a == nullptr) {
      path_a = argv[i];
    } else if (path_b == nullptr) {
      path_b = argv[i];
    } else {
      path_a = nullptr;  // too many operands
      break;
    }
  }
  if (path_a == nullptr || path_b == nullptr) {
    std::fprintf(stderr,
                 "usage: divergence_bisect A.json B.json [--quiet]\n"
                 "  A/B: es2-hash-v1 epoch-hash series "
                 "(<dir>/hashes.json from bench --observe=<dir>)\n");
    return 2;
  }

  HashSeries a, b;
  if (!load_series(path_a, &a) || !load_series(path_b, &b)) return 2;

  const Divergence d = find_divergence(a, b);
  if (d.epoch == -2) {
    std::fprintf(stderr, "divergence_bisect: incomparable series: %s\n",
                 d.detail.c_str());
    return 2;
  }
  if (d.epoch == -1) {
    if (!quiet) {
      std::printf("identical: %s (%zu epochs x %zu components)\n",
                  d.detail.c_str(), a.entries.size(),
                  a.component_names.size());
    }
    return 0;
  }

  std::printf("DIVERGENCE at epoch %lld (t=%.3f ms): %s\n",
              static_cast<long long>(d.epoch),
              static_cast<double>(d.t) / 1e6, d.detail.c_str());
  if (!quiet) {
    for (const std::string& name : d.components) {
      std::printf("  component: %s\n", name.c_str());
    }
    if (d.epoch > 0) {
      std::printf("  last agreeing epoch: %lld (t=%.3f ms)\n",
                  static_cast<long long>(d.epoch - 1),
                  static_cast<double>(
                      a.entries[static_cast<std::size_t>(d.epoch - 1)].t) /
                      1e6);
    }
  }
  return 1;
}
