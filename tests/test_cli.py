"""Command line behavior: exit codes, report formats, determinism."""

import errno
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from su21_invariants import cli, expr, suites
from su21_invariants.report import CheckResult, VerificationReport


def test_verify_passing_suite_exits_zero(capsys):
    assert cli.main(["verify", "sigma-tau"]) == 0
    out = capsys.readouterr().out
    assert "10/10 checks passed" in out
    assert "FAIL" not in out


def test_verify_json_format(capsys):
    assert cli.main(["verify", "reduction", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["suite", "config", "checks"]
    assert payload["suite"] == "reduction"
    assert len(payload["checks"]) == 6
    assert all(c["status"] == "pass" for c in payload["checks"])
    assert all(list(c)[:3] == ["id", "anchor", "status"] for c in payload["checks"])


def test_verify_reports_are_byte_identical():
    first = suites.run_suite("abelian").to_json()
    second = suites.run_suite("abelian").to_json()
    assert first == second
    t1 = suites.run_suite("lie").to_text()
    t2 = suites.run_suite("lie").to_text()
    assert t1 == t2


def test_verify_all_report_digests_are_pinned():
    # Digests of the default "verify all" renderings; any change to a check,
    # an anchor or a residual changes them.
    rep = suites.run_suite("all")
    text = hashlib.sha256(rep.to_text().encode()).hexdigest()
    payload = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert text == "21a0f0fd1555b63dc6a4986c17d41dd00e20b460d20818ed1cc2957d86faf7d8"
    assert payload == "dde42b92a5d2c54968e8b5077d7a589bfa115a5c54512c3a7d24f0aa77f348f2"


def test_verify_failure_exits_nonzero(monkeypatch, capsys):
    failing = VerificationReport(
        "lie", {}, [CheckResult("stub", "forced failure", False, "residual text")]
    )
    monkeypatch.setattr(cli.suites, "run_suite", lambda *a, **k: failing)
    assert cli.main(["verify", "lie"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "residual text" in out


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(
        ["verify", "dk", "--format", "json", "--out", str(target)]
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["suite"] == "dk"
    assert "report written" in capsys.readouterr().out


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    for target in (tmp_path / "no" / "such" / "report.txt", tmp_path):
        code = cli.main(["verify", "lie", "--out", str(target)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write report to ")
        assert captured.out == ""


def test_verify_bounds_are_configurable(capsys):
    assert cli.main(["verify", "table", "--max-degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "degree-3" in out and "degree-4" not in out


def test_unknown_suite_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "frobnicate"])
    assert err.value.code == 2


def test_invalid_bounds_are_errors(capsys):
    assert cli.main(["verify", "table", "--max-degree", "-1"]) == 2
    assert "nonnegative" in capsys.readouterr().err
    with pytest.raises(ValueError):
        suites.run_suite("uc-basis", max_filtration=-2)
    # A bound that the suite does not read is refused, not ignored.
    unread = (
        (["lie", "--max-degree", "3"], "suite lie reads no max_degree"),
        (["table", "--max-filtration", "3"], "suite table reads no max_filtration"),
    )
    for argv, message in unread:
        assert cli.main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message


def test_eval_command(capsys):
    assert cli.main(["eval", "--context", "symmetric", "H^2+4*E*F"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "H1^2 - 2*H1*H2 + H2^2 + 4*E*F"


def test_eval_parse_error_exit_code(capsys):
    assert cli.main(["eval", "--context", "symmetric", "H^^2"]) == 2
    assert "position" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["E^\u0661 + \u0663", "E^\u00b2"])
def test_non_ascii_digits_are_a_usage_error(text, capsys):
    # Arabic-Indic one and three, and a superscript two: numbers are ASCII only.
    assert cli.main(["eval", "--context", "symmetric", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unexpected character")
    assert "(at position 2)" in captured.err


def test_zero_denominator_is_a_usage_error(capsys):
    assert cli.main(["eval", "--context", "symmetric", "1/0"]) == 2
    assert "zero denominator" in capsys.readouterr().err
    assert cli.main(["mul", "--context", "enveloping", "E", "3/0*F"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_nesting_depth_is_capped(capsys):
    deep = "(" * 5000 + "1" + ")" * 5000
    assert cli.main(["eval", "--context", "symmetric", deep]) == 2
    assert "nested deeper than" in capsys.readouterr().err
    shallow = "(" * 50 + "1" + ")" * 50
    assert cli.main(["eval", "--context", "symmetric", shallow]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_exponent_is_capped(capsys):
    assert cli.main(["eval", "--context", "symmetric", "E^100000"]) == 2
    assert "exceeds the cap of %d" % expr.MAX_EXPONENT in capsys.readouterr().err
    over = "(E+F)^%d" % (expr.MAX_EXPONENT + 1)
    assert cli.main(["mul", "--context", "enveloping", "E", over]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


def test_power_size_is_capped(capsys):
    letters = "(H1+H2+E+F+E1+E2+F1+F2)"
    # C(8 + 14 - 1, 14) = 116 280 possible terms: refused before any product.
    assert cli.main(["eval", "--context", "symmetric", letters + "^14"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "over the cap of %d" % expr.MAX_POWER_TERMS in err
    assert cli.main(["mul", "--context", "enveloping", "E", letters + "^11"]) == 2
    assert "over the cap" in capsys.readouterr().err
    # C(8 + 10 - 1, 10) = 19 448 terms is under the cap, and so is (E+F)^32.
    assert cli.main(["eval", "--context", "symmetric", letters + "^10"]) == 0
    assert capsys.readouterr().out.count(" + ") == 19448 - 1
    assert cli.main(["eval", "--context", "symmetric", "(E+F)^32"]) == 0
    assert capsys.readouterr().out.strip().startswith("E^32 + 32*E^31*F")
    # PBW straightening adds every lower degree, so the enveloping cap counts
    # the C(8 + n, n) monomials of degree <= n: 24 310 at 9, 43 758 at 10.
    for n in (9, 10):
        assert cli.main(["eval", "--context", "enveloping", letters + "^%d" % n]) == 2
        err = capsys.readouterr().err
        assert "may have %d terms, over the cap" % comb(8 + n, n) in err
    # C(16, 8) = 12 870 for 12 758 terms, and C(34, 32) = 561 for (E+F)^32.
    assert cli.main(["eval", "--context", "enveloping", letters + "^8"]) == 0
    out = capsys.readouterr().out
    assert out.count(" + ") + out.count(" - ") == 12758 - 1
    assert cli.main(["eval", "--context", "enveloping", "(E+F)^32"]) == 0
    assert capsys.readouterr().out.strip().startswith("E^32 + ")
    # C(p) has only 16 blades, so a clifford power counts at most 16 terms.
    assert cli.main(["eval", "--context", "clifford", "(E1+E2+F1+F2)^24"]) == 0
    assert capsys.readouterr().out.strip() == "16777216"
    base = "(E1+2*E2+F1+F2+E1*F2)"
    assert cli.main(["eval", "--context", "clifford", base + "^32"]) == 0
    power = capsys.readouterr().out
    assert cli.main(["mul", "--context", "clifford", base + "^16", base + "^16"]) == 0
    assert capsys.readouterr().out == power
    for zero_power in ("0^0", "(E-E)^0"):
        assert cli.main(["eval", "--context", "symmetric", zero_power]) == 0
        assert capsys.readouterr().out.strip() == "1"


def test_product_size_is_capped(monkeypatch, capsys):
    power = "(H1+H2+E+F+E1+E2+F1+F2)^10"
    # 19 448 x 19 448 term pairs: refused before the product, at the '*'.
    assert cli.main(["eval", "--context", "symmetric", power + "*" + power]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a product of 19448 by 19448 terms")
    assert "over the cap of %d" % expr.MAX_PRODUCT_PAIRS in err
    assert err.rstrip().endswith("(at position %d)" % len(power))
    assert cli.main(["mul", "--context", "symmetric", power, power]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a product of 19448 by 19448 terms")
    # At the cap a product goes through; one pair past it is refused, for
    # '*', '^^' and '(x)' alike.
    monkeypatch.setattr(expr, "MAX_PRODUCT_PAIRS", 6)
    at = ("(E+F)*(E+F+H1)", "(E+F+H1) (x) (E1+F1)", "1 (x) (E1+E2)^^(F1+F2+E1)")
    for text in at:
        assert cli.main(["eval", "--context", "tensor", text]) == 0
        capsys.readouterr()
    over = (
        "(E+F)*(E+F+H1+H2)", "(E+F+H1+H2) (x) (E1+F1)", "1 (x) (E1+E2)^^(E1+E2+F1+F2)"
    )
    for text in over:
        assert cli.main(["eval", "--context", "tensor", text]) == 2
        assert "over the cap of 6" in capsys.readouterr().err
    assert cli.main(["mul", "--context", "enveloping", "E+F", "E+F+H1"]) == 0
    capsys.readouterr()
    assert cli.main(["mul", "--context", "enveloping", "E+F", "E+F+H1+H2"]) == 2
    assert capsys.readouterr().err.startswith("error: a product of 2 by 4 terms")


# Each printed a traceback past the 4 300-digit print limit, the last after
# 17 s of CPU time in the parse.
_HUGE_COEFFICIENTS = (
    ("eval", "symmetric", "((10^32)^32)^32"),
    ("eval", "enveloping", "(((1/3)^32)^32)^32*E"),
    ("mul", "symmetric", "((10^32)^32)^3", "((10^32)^32)^3"),
    ("eval", "symmetric", "((((9^32)^32)^32)^32)^8"),
)


@pytest.mark.parametrize("argv", _HUGE_COEFFICIENTS, ids=lambda argv: argv[2])
def test_coefficient_size_is_capped(argv, capsys):
    command, context, *texts = argv
    start = time.process_time()
    assert cli.main([command, "--context", context, *texts]) == 2
    assert time.process_time() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: a ")
    assert "over the cap of %d digits" % expr.MAX_COEFFICIENT_DIGITS in captured.err


def test_coefficient_cap_is_decided_at_the_operator(capsys):
    # 10^1024 has 3 402 bits: to the 4th it stays under the 14 284 bits of
    # 4 300 digits and prints all 4 097 digits of 10^4096.
    assert cli.main(["eval", "--context", "symmetric", "((10^32)^32)^4"]) == 0
    assert capsys.readouterr().out == "1" + "0" * 4096 + "\n"
    assert cli.main(["eval", "--context", "symmetric", "((10^32)^32)^5"]) == 2
    err = capsys.readouterr().err
    assert "of coefficients of up to 3402 bits may have a coefficient of 17010 bits" in err
    assert err.rstrip().endswith("(at position 12)")
    text = "((10^32)^32)^4*(10^32)^7"
    assert cli.main(["eval", "--context", "symmetric", text]) == 2
    err = capsys.readouterr().err
    assert "coefficients of up to 13607 and 745 bits" in err
    assert err.rstrip().endswith("(at position %d)" % text.index("*"))


def test_unprintable_coefficient_is_a_clean_error():
    # Under a stricter print limit a coefficient inside the cap still cannot
    # be printed, nor a literal inside the cap be read: one error line in the
    # package's words, no traceback.
    for text, ending in (
        ("(10^32)^22", "limit of 640 digits (PYTHONINTMAXSTRDIGITS)"),
        ("1/" + "9" * 700, "(at position 2)"),
    ):
        done = _run_cli(
            ["eval", "--context", "symmetric", text],
            subprocess.PIPE,
            prefix=("env", "PYTHONINTMAXSTRDIGITS=640"),
        )
        assert done.returncode == 2
        assert done.stdout == b""
        err = done.stderr.decode()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert err.rstrip().endswith(ending), err
        assert "set_int_max_str_digits" not in err


def test_long_number_literal_is_a_clean_error(capsys):
    # int() refused these with CPython's own message and no position.
    for text, position in (("9" * 4301, 0), ("1/" + "9" * 4301, 2)):
        assert cli.main(["eval", "--context", "symmetric", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.rstrip().endswith("(at position %d)" % position)
        assert "over the cap of %d digits" % expr.MAX_COEFFICIENT_DIGITS in err
        assert "set_int_max_str_digits" not in err
    assert cli.main(["eval", "--context", "symmetric", "9" * 4300]) == 0
    assert capsys.readouterr().out == "9" * 4300 + "\n"


def test_enveloping_products_are_weighed_by_degree(capsys):
    letters = "(H1+H2+E+F+E1+E2+F1+F2)"
    # Each took 4 s of CPU time or more: refused before the product, with
    # the pairs weighed by the degrees of the factors.
    slow = (
        (letters + "^5", letters + "^5"),
        (letters + "^2", letters + "^8"),
        (letters + "^4", letters + "^4"),
        ("(E1+F1)^12", "(E1+F1)^12"),
        ("(E+F)^12", "(E+F)^12"),
        ("(E+F)^14", "(E+F)^14"),
        ("(E+F)^4", "(E+F)^20"),
    )
    for x, y in slow:
        assert cli.main(["eval", "--context", "enveloping", x + "*" + y]) == 2
        assert "over the cap of %d" % expr.MAX_PRODUCT_PAIRS in capsys.readouterr().err
        assert cli.main(["mul", "--context", "enveloping", x, y]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a product of ")
    # Under a second each: the longer factor on the left, or low degrees.
    fast = ((letters + "^3", letters + "^3"), ("(E+F)^20", "(E+F)^4"))
    for x, y in fast:
        parsed = [expr.parse_element(text, "enveloping") for text in (x, y)]
        assert expr.product_problem(*parsed) is None
    assert cli.main(["mul", "--context", "enveloping", "(E+F)^8", "(E+F)^8"]) == 0
    square = capsys.readouterr().out
    assert cli.main(["eval", "--context", "enveloping", "(E+F)^16"]) == 0
    assert square == capsys.readouterr().out


def test_mul_command(capsys):
    assert cli.main(["mul", "--context", "clifford", "E1", "F1"]) == 0
    assert capsys.readouterr().out.strip() == "E1*F1"
    assert cli.main(["mul", "--context", "enveloping", "F", "E"]) == 0
    assert capsys.readouterr().out.strip() == "E*F - H1 + H2"


ROOT = Path(__file__).resolve().parents[1]


def _readme_examples():
    """(argv, printed line) of each eval and mul example in README.md."""
    lines = (ROOT / "README.md").read_text().splitlines()
    return [
        (shlex.split(line)[2:], lines[i + 1])
        for i, line in enumerate(lines)
        if line.startswith(("$ su21-invariants eval ", "$ su21-invariants mul "))
    ]


def test_readme_examples_print_what_the_readme_shows(capsys):
    examples = _readme_examples()
    assert len(examples) == 3
    for argv, line in examples:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == line + "\n"


# One command of each kind, each with kilobytes of output.
_STDOUT_COMMANDS = (
    ["verify", "all"],
    ["eval", "--context", "symmetric", "(H1+H2+E+F+E1+E2+F1+F2)^6"],
    ["mul", "--context", "symmetric", "(E+F+E1)^5", "(H+F2)^5"],
)


def _run_cli(argv, stdout, prefix=()):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run(
        [*prefix, sys.executable, "-m", "su21_invariants.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=120,
    )


def _assert_one_error_line(done, reason):
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert err == "error: cannot write to stdout: %s\n" % reason


@pytest.mark.parametrize("argv", _STDOUT_COMMANDS, ids=lambda argv: argv[0])
def test_stdout_pipe_without_reader_is_a_clean_error(argv):
    # The state a reader such as `head -1` leaves behind once it has exited;
    # closing the read end before the command starts makes every write fail.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _run_cli(argv, write_end)
    finally:
        os.close(write_end)
    _assert_one_error_line(done, os.strerror(errno.EPIPE))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", _STDOUT_COMMANDS, ids=lambda argv: argv[0])
def test_full_stdout_is_a_clean_error(argv):
    with open("/dev/full", "wb") as full:
        done = _run_cli(argv, full)
    _assert_one_error_line(done, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", _STDOUT_COMMANDS, ids=lambda argv: argv[0])
def test_closed_stdout_is_a_clean_error(argv):
    # The shell closes file descriptor 1 before the command starts, so the
    # interpreter starts with no stdout at all.
    done = _run_cli(argv, None, prefix=("sh", "-c", 'exec "$@" >&-', "sh"))
    _assert_one_error_line(done, os.strerror(errno.EBADF))


def test_run_suite_all_merges_everything():
    rep = suites.run_suite("all", max_degree=2, max_filtration=2)
    assert rep.suite == "all"
    assert rep.passed
    ids = [c.check_id for c in rep.checks]
    assert any(i.startswith("lie:") for i in ids)
    assert any(i.startswith("uc-basis:") for i in ids)
    assert any(i.startswith("ideal-slice:") for i in ids)


def _refuse_every_suite(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a suite ran before its bound was checked")

    for name, row in suites.SUITES.items():
        monkeypatch.setitem(suites.SUITES, name, row._replace(run=must_not_run))


def _capped(bound):
    """Each suite that reads the bound, with its cap from the table, and
    'all', capped at the smallest of them."""
    caps = {n: row.cap for n, row in suites.SUITES.items() if row.bound == bound}
    caps["all"] = min(caps.values())
    return [pytest.param(name, cap, id=name) for name, cap in caps.items()]


def test_all_rejects_slice_bound_before_any_suite(monkeypatch):
    _refuse_every_suite(monkeypatch)
    cap = suites.SUITES["ideal-slice"].cap
    with pytest.raises(ValueError, match="max_filtration is capped at %d" % cap):
        suites.run_suite("all", max_filtration=cap + 1)


@pytest.mark.parametrize("suite, cap", _capped("max_degree"))
def test_max_degree_is_capped_before_any_suite(suite, cap, monkeypatch, capsys):
    _refuse_every_suite(monkeypatch)
    assert cli.main(["verify", suite, "--max-degree", str(cap + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_degree is capped at %d\n" % cap


@pytest.mark.parametrize("suite, cap", _capped("max_filtration"))
def test_max_filtration_is_capped_before_any_suite(suite, cap, monkeypatch, capsys):
    _refuse_every_suite(monkeypatch)
    assert cli.main(["verify", suite, "--max-filtration", str(cap + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_filtration is capped at %d\n" % cap


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        suites.run_suite("nope")
