#pragma once

// Option-value parsing shared by the example CLIs. Every value must be the
// whole token ("5x" is rejected, not read as 5) and fit its type; a missing
// or malformed value names the option and exits with the usage-error status
// 2 instead of throwing out of main.

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <system_error>

namespace vw::cli {

[[noreturn]] inline void bad_value(const char* option, const char* text, const char* expected) {
  std::cerr << option << ": invalid value '" << text << "' (expected " << expected << ")\n";
  std::exit(2);
}

/// The token after option argv[i]; exits 2 when there is none.
inline const char* need_value(int argc, char** argv, int i) {
  if (i + 1 >= argc) {
    std::cerr << argv[i] << " requires an argument\n";
    std::exit(2);
  }
  return argv[i + 1];
}

/// The value of option argv[i] as an unsigned integer of type T (decimal,
/// no sign, within T's range).
template <typename T>
T uint_value(int argc, char** argv, int i) {
  const char* text = need_value(argc, argv, i);
  const char* end = text + std::strlen(text);
  unsigned long long v = 0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || ptr != end || v > std::numeric_limits<T>::max()) {
    const std::string expected =
        "an integer in [0, " + std::to_string(std::numeric_limits<T>::max()) + "]";
    bad_value(argv[i], text, expected.c_str());
  }
  return static_cast<T>(v);
}

}  // namespace vw::cli
