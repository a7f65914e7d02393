#!/usr/bin/env python3
"""Tests for tools/vwlint.py against tests/lint_fixtures/.

pytest-style test_* functions, but self-running (`python3 tools/test_vwlint.py`)
so the container needs no pytest install; pytest picks the same functions up
when it is available. Each rule R1-R5 has a minimal bad fixture that must be
flagged and a good fixture that must pass, so rule regressions are caught
without compiling the C++ tree.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import vwlint  # noqa: E402

FIXTURES = vwlint.REPO / "tests" / "lint_fixtures"


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = vwlint.main(argv)
    return code, buf.getvalue()


def check_fixture(rule: str, name: str, *, clean: bool,
                  expect_findings: int | None = None,
                  expect_substr: str | None = None) -> None:
    code, out = run(["--rules", rule, str(FIXTURES / name)])
    if clean:
        assert code == 0, f"{name} should be clean under {rule}:\n{out}"
    else:
        assert code == 1, f"{name} should be flagged under {rule}:\n{out}"
        if expect_findings is not None:
            got = out.count(f"[{rule}]")
            assert got == expect_findings, (
                f"{name}: expected {expect_findings} {rule} findings, got {got}:\n{out}")
        if expect_substr is not None:
            assert expect_substr in out, f"{name}: missing '{expect_substr}' in:\n{out}"


# --- R1 virtual-clock purity -------------------------------------------------

def test_r1_bad_flags_every_wallclock_source() -> None:
    # steady/system/high_resolution ::now + time(nullptr) + clock().
    check_fixture("R1", "r1_bad.cpp", clean=False, expect_findings=5,
                  expect_substr="wall clock")


def test_r1_good_ignores_simtime_and_lookalike_names() -> None:
    check_fixture("R1", "r1_good.cpp", clean=True)


# --- R2 seeded randomness ----------------------------------------------------

def test_r2_bad_flags_ambient_randomness() -> None:
    # random_device + two default-constructed mt19937 + srand + rand.
    check_fixture("R2", "r2_bad.cpp", clean=False, expect_findings=5,
                  expect_substr="RngService")


def test_r2_good_accepts_explicit_seeds() -> None:
    check_fixture("R2", "r2_good.cpp", clean=True)


# --- R3 ordered iteration ----------------------------------------------------

def test_r3_bad_flags_range_for_and_iterator_loops() -> None:
    check_fixture("R3", "r3_bad.cpp", clean=False, expect_findings=2,
                  expect_substr="unordered container")


def test_r3_good_accepts_sorted_copy_and_waiver() -> None:
    check_fixture("R3", "r3_good.cpp", clean=True)


# --- R4 hot-path allocation hygiene ------------------------------------------

def test_r4_bad_flags_std_function_and_byval_shared_ptr() -> None:
    check_fixture("R4", "r4_bad.hpp", clean=False, expect_findings=2)


def test_r4_good_accepts_smallfn_and_const_ref() -> None:
    check_fixture("R4", "r4_good.hpp", clean=True)


def test_r4_scope_covers_capture_datapath_headers() -> None:
    # The capture datapath runs per packet despite living outside sim/net:
    # HOT_PATH_EXTRA must pull these headers into R4 scope.
    for rel in sorted(vwlint.HOT_PATH_EXTRA):
        path = vwlint.SRC / rel
        assert path.exists(), f"HOT_PATH_EXTRA names a missing header: {rel}"
        assert vwlint.make_context(path).hot_path_header, rel
    # Controls: cold wren headers stay out of scope; every sim/net header
    # is in it.
    assert not vwlint.make_context(vwlint.SRC / "wren/offline.hpp").hot_path_header
    assert vwlint.make_context(vwlint.SRC / "net/fault.hpp").hot_path_header
    assert vwlint.make_context(vwlint.SRC / "net/packet.hpp").hot_path_header


# --- R5 contract coverage ----------------------------------------------------

def r5_context(rel_src: str = "fixtures/r5_contracts.hpp") -> vwlint.FileContext:
    """The R5 fixture, analyzed as if it lived at src/<rel_src>."""
    ctx = vwlint.make_context(FIXTURES / "r5_contracts.hpp")
    ctx.is_src = True
    ctx.rel_src = rel_src
    ctx.path = vwlint.SRC / rel_src
    return ctx


def test_r5_counts_contract_macros_per_module() -> None:
    counts = vwlint.contract_counts([r5_context()])
    assert counts == {"src/fixtures": 2}, counts
    # Sources count as well as headers, summed over the module; files
    # directly under src/ belong to no module.
    counts = vwlint.contract_counts([r5_context(), r5_context("fixtures/r5_contracts.cpp"),
                                     r5_context("other/r5_contracts.cpp"),
                                     r5_context("r5_contracts.cpp")])
    assert counts == {"src/fixtures": 4, "src/other": 2}, counts


def test_r5_flags_coverage_regression_and_passes_at_baseline() -> None:
    ctx = r5_context()
    with tempfile.TemporaryDirectory() as tmp:
        baseline = Path(tmp) / "baseline.json"
        baseline.write_text(json.dumps({"contracts": {"src/fixtures": 3}}))
        regress = vwlint.check_r5_contracts([ctx], baseline)
        assert len(regress) == 1 and "regressed: 2 < baseline 3" in regress[0].message

        baseline.write_text(json.dumps({"contracts": {"src/fixtures": 2}}))
        assert vwlint.check_r5_contracts([ctx], baseline) == []

        # A module that vanished without --update-baseline is a finding too.
        baseline.write_text(json.dumps({"contracts": {"src/gone": 1}}))
        gone = vwlint.check_r5_contracts([ctx], baseline)
        assert len(gone) == 1 and "no longer exists" in gone[0].message


def test_r5_missing_baseline_is_a_finding() -> None:
    missing = vwlint.check_r5_contracts([r5_context()], Path("/nonexistent/base.json"))
    assert len(missing) == 1 and "baseline missing" in missing[0].message


# --- waivers -----------------------------------------------------------------

def test_waiver_grammar_and_audit_table() -> None:
    code, out = run(["--list-waivers", str(FIXTURES / "r3_good.cpp")])
    assert code == 0
    assert "unordered-ok" in out and "order normalized" in out


def test_waiver_only_suppresses_matching_tag() -> None:
    # An unordered-ok waiver must not silence R1/R2 findings on the same line.
    ctx_text = ("#include <ctime>\n"
                "// vwlint: unordered-ok(wrong tag for this rule)\n"
                "long long t() { return time(nullptr); }\n")
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "wrong_tag.cpp"
        p.write_text(ctx_text)
        code, out = run(["--rules", "R1", str(p)])
        assert code == 1 and "[R1]" in out, out


def test_empty_waiver_reason_is_a_hygiene_finding() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "empty_reason.cpp"
        p.write_text("// vwlint: wallclock-ok()\nint x = 0;\n")
        code, out = run(["--rules", "hygiene", str(p)])
        assert code == 1 and "empty reason" in out, out


# --- raw string literals -----------------------------------------------------

def test_strip_comments_handles_raw_string_literals() -> None:
    text = 'auto a = u8R"x(one\ntwo " three)x";\nint b = 0;\n'
    code = vwlint.strip_comments(text)
    assert code.count("\n") == text.count("\n"), "line numbers must survive"
    assert "three" not in code, "raw string body must be blanked"
    assert code.splitlines()[2].strip() == "int b = 0;", code


def test_r1_raw_string_does_not_desync_scan() -> None:
    # An embedded quote in a raw string must not swallow the code after it:
    # the time() text inside the literal stays unflagged, the real call on
    # line 3 is flagged at the right line.
    src = ('#include <ctime>\n'
           'const char* kDoc = R"(call time(nullptr) " quote)";\n'
           'long long t() { return time(nullptr); }\n')
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "raw.cpp"
        p.write_text(src)
        code, out = run(["--rules", "R1", str(p)])
        assert code == 1 and out.count("[R1]") == 1, out
        assert "raw.cpp:3:" in out, out


# --- semantic-mode coverage --------------------------------------------------

def test_semantic_mode_token_checks_uncovered_files() -> None:
    # A successful semantic pass covers only the parsed TUs; headers (no
    # compile commands) and unparsed files must still get token-level R1-R3.
    with tempfile.TemporaryDirectory() as tmp:
        cov = (Path(tmp) / "covered.cpp").resolve()
        cov.write_text("int main() { return 0; }\n")
        hdr = Path(tmp) / "clocky.hpp"
        hdr.write_text("#pragma once\n#include <ctime>\n"
                       "inline long long t() { return time(nullptr); }\n")
        orig = vwlint.try_semantic
        vwlint.try_semantic = lambda files, cc, rules: ([], {cov})
        try:
            code, out = run(["--semantic", "--rules", "R1", str(cov), str(hdr)])
        finally:
            vwlint.try_semantic = orig
        assert code == 1 and "[R1]" in out and "clocky.hpp" in out, out


def test_clean_compile_args_strips_c_o_and_source() -> None:
    args = ["clang++", "-std=c++20", "-Isrc", "-c", "src/sim/engine.cxx",
            "-o", "CMakeFiles/engine.dir/engine.cxx.o", "-DFOO=1"]
    cleaned = vwlint.clean_compile_args(args, "src/sim/engine.cxx")
    assert cleaned == ["-std=c++20", "-Isrc", "-DFOO=1"], cleaned


# --- whole-tree invariants ---------------------------------------------------

def test_tree_runs_clean() -> None:
    code, out = run([])
    assert code == 0, f"vwlint must be clean on the committed tree:\n{out}"


def test_baseline_matches_tree() -> None:
    """The committed R5 baseline must be exactly the current tree's coverage,
    so any contract removal fails CI until --update-baseline is rerun."""
    files = [vwlint.make_context(p) for p in vwlint.collect_tree_files()]
    current = vwlint.contract_counts(files)
    committed = json.loads(vwlint.BASELINE.read_text())["contracts"]
    assert committed == current, (
        "tools/vwlint_baseline.json is stale; rerun tools/vwlint.py --update-baseline")


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"  PASS {name}")
        except AssertionError as exc:
            failures += 1
            print(f"  FAIL {name}: {exc}")
    print(f"test_vwlint: {len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
