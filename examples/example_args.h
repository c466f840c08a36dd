// Command-line parsing shared by the examples.
//
// Every example takes `--fast`; some take one valued flag as well
// (`--samples N`, `--config NAME`), its value in the next argument. An
// unknown flag, a valued flag without its value, or a malformed value
// exits 2 naming the flag, as the benches' parse_args does: a misspelt
// flag must not run the full-length example and exit 0.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace es2::example {

[[noreturn]] inline void refuse(const char* prog, std::string_view flag,
                                const char* why) {
  std::fprintf(stderr, "%s: %s %.*s\n", prog, why,
               static_cast<int>(flag.size()), flag.data());
  std::exit(2);
}

/// The value after the valued flag at argv[i]; advances i past it.
inline const char* value_of(int argc, char** argv, int& i) {
  if (i + 1 >= argc) refuse(argv[0], argv[i], "missing value for");
  return argv[++i];
}

/// A whole positive decimal number, or exit 2 naming `flag`.
inline int positive_int(const char* prog, const char* flag,
                        const char* text) {
  int v = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || v <= 0) {
    std::fprintf(stderr, "%s: %s needs a positive whole number, got '%s'\n",
                 prog, flag, text);
    std::exit(2);
  }
  return v;
}

/// For the examples whose only flag is `--fast`: true if it was given.
inline bool fast_only(int argc, char** argv) {
  bool fast = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") != 0) {
      refuse(argv[0], argv[i], "unknown flag");
    }
    fast = true;
  }
  return fast;
}

}  // namespace es2::example
