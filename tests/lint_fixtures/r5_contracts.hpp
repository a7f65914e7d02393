#pragma once

// R5 fixture: a file with exactly two VW_REQUIRE/VW_ENSURE contract sites;
// test_vwlint.py places it in fixture modules to check per-module counting
// and baseline regression.
#define VW_REQUIRE(cond, ...) ((void)(cond))
#define VW_ENSURE(cond, ...) ((void)(cond))

inline int clamp_positive(int x) {
  VW_REQUIRE(x > -1000, "way out of range");
  const int r = x < 0 ? 0 : x;
  VW_ENSURE(r >= 0, "postcondition");
  return r;
}
