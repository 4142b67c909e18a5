"""Command-line behavior: exit codes, renderings, determinism, JSON schemas."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from cmkostka import cli, verify
from cmkostka.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_character_single_report(capsys):
    code, out, _ = run_cli(capsys, "character", "--partition", "2,1")
    assert code == 0
    assert out == "lambda: 2,1\nkostka: 1 + q\ncharacter: q^-1 + 2 + q\ndimension: 2\n"


def test_character_json_schema(capsys):
    code, out, _ = run_cli(capsys, "character", "--partition", "2,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == "2,1"
    assert data["kostka"] == {"0": "1", "1": "1"}
    assert data["character"] == {"-1": "1", "0": "2", "1": "1"}
    assert data["dimension"] == "2"
    assert isinstance(data["dimension"], str)


def test_character_batch_over_size(capsys):
    code, out, _ = run_cli(capsys, "character", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("3:")


def test_kostka_golden_and_parse_error(capsys):
    code, out, _ = run_cli(capsys, "kostka", "--partition", "3,1")
    assert code == 0 and out == "3,1: 1 + q + q^2\n"

    code, _, err = run_cli(capsys, "kostka", "--partition", "2,0")
    assert code == 2
    assert "position" in err


def test_kostka_gamma_label(capsys):
    code, out, _ = run_cli(capsys, "kostka", "--gamma-partition", "1;1")
    assert code == 0 and out == "1;1: 1 + q\n"


def test_kostka_wreath_batch(capsys):
    code, out, _ = run_cli(capsys, "kostka", "--n", "2", "--N", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert [entry["lambda"] for entry in data] == ["2;-", "1,1;-", "1;1", "-;2", "-;1,1"]


def test_tangent_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "tangent", "--partition", "2,1")
    assert code == 0 and out == "2,1: -3,-1,-1\n"
    code, out, _ = run_cli(capsys, "tangent", "--partition", "2,1", "--json")
    assert json.loads(out) == {"lambda": "2,1", "weights": ["-3", "-1", "-1"]}


def test_tangent_rejects_components_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tangent", "--n", "2", "--N", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["kostka", "character"])
def test_components_flag_must_fit_the_label(capsys, command):
    code, out, err = run_cli(capsys, command, "--partition", "3,1", "--N", "5")
    assert (code, out) == (2, "") and "--N" in err
    code, out, err = run_cli(capsys, command, "--gamma-partition", "1;1", "--N", "3")
    assert (code, out) == (2, "") and "2 components" in err
    code, out, _ = run_cli(capsys, command, "--gamma-partition", "1;1", "--N", "2")
    assert code == 0
    assert out == run_cli(capsys, command, "--gamma-partition", "1;1")[1]


class _Enumerated(Exception):
    """Raised by the spies below in place of starting a batch enumeration."""


def _refuse_enumeration(*args):
    raise _Enumerated(args)


@pytest.mark.parametrize(
    "argv, at_cap",
    [
        (["kostka", "--n", "21"], ["kostka", "--n", "20"]),
        (["character", "--n", "21"], ["character", "--n", "20"]),
        (["kostka", "--N", "5", "--n", "1"], ["kostka", "--N", "4", "--n", "1"]),
        (["kostka", "--N", "4", "--n", "11"], ["kostka", "--N", "4", "--n", "10"]),
        (["character", "--N", "5", "--n", "1"], ["character", "--N", "4", "--n", "1"]),
        (["character", "--N", "4", "--n", "11"], ["character", "--N", "4", "--n", "10"]),
        (["wreath", "--N", "5", "--n", "1"], ["wreath", "--N", "4", "--n", "1"]),
        (["wreath", "--N", "4", "--n", "11"], ["wreath", "--N", "4", "--n", "10"]),
    ],
)
def test_batch_caps_refuse_before_enumerating(capsys, monkeypatch, argv, at_cap):
    monkeypatch.setattr(cli, "enumerate_partitions", _refuse_enumeration)
    monkeypatch.setattr(cli, "enumerate_gamma_partitions", _refuse_enumeration)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "exceeds the" in err
    with pytest.raises(_Enumerated):  # the cap itself is accepted
        main(at_cap)


@pytest.mark.parametrize(
    "argv, at_cap",
    [
        (["schur-p1n", "--n", "21"], ["schur-p1n", "--n", "20"]),
        (["schur-p1n", "--N", "5", "--n", "1"], ["schur-p1n", "--N", "4", "--n", "1"]),
        (["schur-p1n", "--N", "4", "--n", "11"], ["schur-p1n", "--N", "4", "--n", "10"]),
    ],
)
def test_schur_p1n_caps_refuse_before_expanding(capsys, monkeypatch, argv, at_cap):
    monkeypatch.setattr(cli, "expand_p1n", _refuse_enumeration)
    monkeypatch.setattr(cli, "expand_p1n_wreath", _refuse_enumeration)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "exceeds the" in err
    with pytest.raises(_Enumerated):  # the cap itself is accepted
        main(at_cap)


def test_tangent_batches_are_not_capped(capsys):
    code, out, _ = run_cli(capsys, "tangent", "--n", "21")
    assert code == 0 and len(out.splitlines()) == 792


def test_schur_p1n_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "schur-p1n", "--n", "3")
    assert code == 0
    assert out == "3: 1\n2,1: 2\n1,1,1: 1\n"
    code, out, _ = run_cli(capsys, "schur-p1n", "--n", "3", "--json")
    assert json.loads(out) == [
        {"lambda": "3", "m": "1"},
        {"lambda": "2,1", "m": "2"},
        {"lambda": "1,1,1", "m": "1"},
    ]


def test_schur_p1n_wreath(capsys):
    code, out, _ = run_cli(capsys, "schur-p1n", "--n", "2", "--N", "2", "--json")
    assert code == 0
    got = {entry["lambda"]: entry["m"] for entry in json.loads(out)}
    assert got == {"2;-": "1", "1,1;-": "1", "1;1": "2", "-;2": "1", "-;1,1": "1"}


def test_wreath_identity_report(capsys):
    code, out, _ = run_cli(capsys, "wreath", "--N", "2", "--n", "2")
    assert code == 0
    assert "sum of squared dimensions: 8" in out
    assert "wreath group order: 8" in out
    assert out.rstrip().endswith("verified: true")


def test_wreath_json(capsys):
    code, out, _ = run_cli(capsys, "wreath", "--N", "3", "--n", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["sum_of_squares"] == data["group_order"] == "18"
    assert len(data["labels"]) == 9


def test_cm_verify_text(capsys):
    code, out, _ = run_cli(capsys, "cm-verify", "--y", "0,1", "--alpha", "0,0")
    assert code == 0
    assert "verified: true" in out
    assert "witness column: 1 1" in out


def test_cm_verify_nested_alias_matches(capsys):
    _, flat, _ = run_cli(capsys, "cm-verify", "--y", "0,1,2", "--alpha", "1/2,0,3", "--json")
    _, nested, _ = run_cli(capsys, "cm", "verify", "--y", "0,1,2", "--alpha", "1/2,0,3", "--json")
    assert flat == nested
    data = json.loads(flat)
    assert data["verified"] is True
    assert all(value == "1" for row in data["commutator_plus_identity"] for value in row)


def test_cm_verify_usage_errors(capsys):
    code, _, err = run_cli(capsys, "cm-verify", "--y", "0,0", "--alpha", "1,2")
    assert code == 2 and "distinct" in err
    code, _, err = run_cli(capsys, "cm-verify", "--y", "0,1", "--alpha", "1")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["cm-verify", "--y", "0,zz", "--alpha", "1,2"])
    assert exc.value.code == 2


def test_cm_embed_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "cm-embed", "--y", "0,1", "--alpha", "1/2,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ideal"] == ["0", "-1", "1"]
    rows = [[Fraction(v) for v in row] for row in data["subspace"]]
    assert len(rows) == 4 and all(len(r) == 2 for r in rows)
    w1 = [rows[r][0] for r in range(4)]
    assert w1[0] == 1
    assert w1[1] == Fraction(-1, 2)


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kostka"])
    assert exc.value.code == 2


# `cmkostka verify-all` at its defaults: every check name and item count, byte for byte.
VERIFY_ALL_DEFAULT = """\
PASS hook-count-and-sum (139 items)
PASS hook-conjugation-invariance (139 items)
PASS tableau-count-oracle (139 items)
PASS tableau-square-sum (11 items)
PASS wreath-order-sum (28 items)
PASS division-round-trip (60 items)
PASS inverse-substitution (60 items)
PASS evaluation-multiplicative (60 items)
PASS tangent-weights-negated-hooks (67 items)
PASS tangent-weights-sign-split (67 items)
PASS kostka-normalization (139 items)
PASS kostka-dimension-at-one (139 items)
PASS kostka-conjugation-invariance (139 items)
PASS kostka-major-index-oracle (45 items)
PASS wreath-kostka-factorization (584 items)
PASS character-palindrome-square (139 items)
PASS completion-series-consistency (29 items)
PASS multiplicity-hook-oracle (66 items)
PASS multiplicity-square-sum (8 items)
PASS wreath-multiplicity-square-sum (15 items)
PASS wreath-slot-symmetry (40 items)
PASS wreath-dimension-chain (28 items)
PASS rank-one-random-points (200 items)
PASS scaling-preserves-rank-one (200 items)
PASS involution-preserves-rank-one (200 items)
PASS eigenvalue-polynomial-match (200 items)
PASS profile-round-trip (29 items)
PASS embedding-component-lines (86 items)
PASS embedding-block-factorization (20 items)
29 checks, all passed
"""


def test_verify_all_default_output_is_pinned(capsys):
    assert run_cli(capsys, "verify-all") == (0, VERIFY_ALL_DEFAULT, "")


def test_verify_all_small_run(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--n", "3", "--N", "2", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("all passed")


def test_verify_all_corruption_is_caught(capsys):
    code, out, _ = run_cli(
        capsys, "verify-all", "--n", "3", "--N", "2", "--inject-hook-corruption"
    )
    assert code == 1
    assert "FAIL completion-series-consistency" in out


def test_verify_all_json_items_are_strings(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--n", "3", "--N", "1", "--seed", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(isinstance(check["items"], str) for check in data["checks"])


def test_identical_config_gives_identical_bytes(capsys):
    first = run_cli(capsys, "verify-all", "--n", "3", "--N", "2", "--seed", "9", "--json")
    second = run_cli(capsys, "verify-all", "--n", "3", "--N", "2", "--seed", "9", "--json")
    assert first == second


# Item counts of `verify-all --json --inject-hook-corruption --n 4`, in registry
# order; completion-series-consistency fails at its first item.
CORRUPTED_N4_ITEMS = [12, 12, 12, 5, 20, 60, 60, 60, 12, 12, 12, 12, 12, 12, 136, 12, 1,
                      11, 4, 12, 32, 20, 200, 200, 200, 200, 11, 79, 20]
CORRUPTED_N4_DETAIL = (
    "lambda=1: truncated hook series times the q-factorial disagrees with the polynomial through order 8"
)


def test_verify_all_json_failure_is_pinned(capsys):
    checks = [
        {
            "name": name,
            "passed": name != "completion-series-consistency",
            "items": str(items),
            "detail": "" if name != "completion-series-consistency" else CORRUPTED_N4_DETAIL,
        }
        for name, items in zip(verify.check_names(), CORRUPTED_N4_ITEMS, strict=True)
    ]
    expected = json.dumps({"seed": "0", "checks": checks, "passed": False}, indent=2) + "\n"
    argv = ("verify-all", "--json", "--inject-hook-corruption", "--n", "4")
    assert run_cli(capsys, *argv) == (1, expected, "")


def test_verify_all_crash_inside_a_check_is_a_failed_check(capsys, monkeypatch):
    def crash(lim):
        raise ValueError("boom")

    registry = list(verify._REGISTRY)
    name = registry[5][0]
    registry[5] = (name, crash)
    monkeypatch.setattr(verify, "_REGISTRY", tuple(registry))
    code, out, _ = run_cli(capsys, "verify-all", "--n", "3", "--N", "2")
    assert code == 1
    lines = out.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 28
    assert f"FAIL {name}: raised ValueError: boom" in lines
    code, out, _ = run_cli(capsys, "verify-all", "--n", "3", "--N", "2", "--json")
    assert code == 1
    (crashed,) = [check for check in json.loads(out)["checks"] if not check["passed"]]
    assert crashed == {"name": name, "passed": False, "items": "0", "detail": "raised ValueError: boom"}


def test_registry_entries_do_their_work_when_called():
    # Each entry returns (items, detail) itself, not a generator left for the
    # caller to drive, so timing one call times the whole check.
    pinned = [line.split() for line in VERIFY_ALL_DEFAULT.splitlines()[:-1]]  # PASS <name> (<items> items)
    lim = verify._Limits(n=None, N=None, seed=0, corrupt_hooks=False)
    for (name, fn), (_, pinned_name, items, _) in zip(verify._REGISTRY, pinned, strict=True):
        result = fn(lim)
        assert type(result) is tuple and type(result[0]) is int and type(result[1]) is str, name
        assert (name, result) == (pinned_name, (int(items[1:]), ""))


def test_rank_one_witness_that_does_not_factor_fails(monkeypatch):
    real_verify_cm = verify.verify_cm

    def perturbed_row(x, y):
        ok, m, (column, row) = real_verify_cm(x, y)
        return ok, m, (column, (row[0] + 1,) + row[1:])

    monkeypatch.setattr(verify, "verify_cm", perturbed_row)
    (result,) = verify.run_checks(names=["rank-one-random-points"], n=4, N=2, seed=3)
    assert not result.passed
    assert result.items == 1
    assert result.detail.endswith(": witness does not factor the matrix")


BAD_LIMITS = [
    ({"n": 0}, ValueError), ({"n": -2}, ValueError), ({"N": 0}, ValueError), ({"max_size": 0}, ValueError),
    ({"n": 2.5}, TypeError), ({"n": "3"}, TypeError), ({"seed": 1.5}, TypeError), ({"seed": "1"}, TypeError),
]


@pytest.mark.parametrize("limits, error", BAD_LIMITS)
def test_run_checks_rejects_bad_limits_before_any_check(monkeypatch, limits, error):
    calls = []
    monkeypatch.setattr(verify, "_REGISTRY", (("spy", lambda lim: calls.append(lim) or (1, "")),))
    with pytest.raises(error):
        verify.run_checks(**limits)
    assert calls == []
    # the spy does record a run with good limits; bool counts as an int
    verify.run_checks(n=True, N=2, max_size=3, seed=-4)
    assert [(lim.n, lim.N, lim.max_size, lim.seed) for lim in calls] == [(1, 2, 3, -4)]


# SHA-256 of stdout for the batches whose characters take the dense products.
LARGE_PRODUCT_STDOUT_SHA256 = [
    (("character", "--n", "12"), "96d59c11ebd65f4ce55f78c550fdd4452917b619d9c5a4ae3f32f68776d1ed8f"),
    (("character", "--N", "3", "--n", "6"), "5e3d49cf5087b4eb836097a1c1670ca12d8859d89545a6302d436f515cf1386a"),
    (("kostka", "--n", "14"), "84b3c28f1a31ff814c7ecae3386bbab8835c82237a3bc0ccd64c6d2daac5959f"),
]


@pytest.mark.parametrize("argv, digest", LARGE_PRODUCT_STDOUT_SHA256)
def test_large_product_batches_are_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "cmkostka.cli", "kostka", "--partition", "2,1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "2,1: 1 + q\n"
