"""Command-line behavior: exit codes, renderings, determinism, JSON schemas."""

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import chain

import pytest

from cmkostka import cli, partitions, schur, verify
from cmkostka.cli import main
from cmkostka.partitions import GammaPartition, Partition
from cmkostka.qpoly import LaurentPoly


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
        (["schur-p1n", "--n", "21"], ["schur-p1n", "--n", "20"]),
        (["schur-p1n", "--N", "5", "--n", "1"], ["schur-p1n", "--N", "4", "--n", "1"]),
        (["schur-p1n", "--N", "4", "--n", "11"], ["schur-p1n", "--N", "4", "--n", "10"]),
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


def test_cm_commands_have_one_spelling(capsys):
    for name in ("verify", "embed"):
        with pytest.raises(SystemExit) as exc:
            main(["cm", name, "--y", "0,1,2", "--alpha", "1/2,0,3"])
        assert exc.value.code == 2 and capsys.readouterr().out == ""
    code, out, _ = run_cli(capsys, "cm-verify", "--y", "0,1,2", "--alpha", "1/2,0,3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert all(value == "1" for row in data["commutator_plus_identity"] for value in row)


def test_cm_verify_usage_errors(capsys):
    code, _, err = run_cli(capsys, "cm-verify", "--y", "0,0", "--alpha", "1,2")
    assert code == 2 and "distinct" in err
    code, _, err = run_cli(capsys, "cm-verify", "--y", "0,1", "--alpha", "1")
    assert code == 2
    for bad in ("zz", "1_0", "\u0663", "03", "+3", "-0", "1.5", "1e2", "1/0", "1/-2", "1/02", "1 /2"):
        for flag in ("--y", "--alpha"):
            values = {"--y": "0,5", "--alpha": "1,2", flag: f"0,{bad}"}
            with pytest.raises(SystemExit) as exc:
                main(["cm-verify", *chain.from_iterable(values.items())])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"expected rationals as p/q or integers, got {bad!r}" in captured.err
    # spaces around a token are stripped; p/q and integers are the accepted forms
    code, out, _ = run_cli(capsys, "cm-verify", "--y", " 0, 5/2 ", "--alpha=-1/3,2")
    assert code == 0 and out.startswith("n: 2\nverified: true\n")


@pytest.mark.parametrize("argv", [
    ["tangent", "--n", "1_0"],
    ["tangent", "--n", "+3"],
    ["tangent", "--n", "\u0663"],
    ["tangent", "--n", "03"],
    ["kostka", "--N", "02", "--n", "2"],
    ["wreath", "--N", "+2", "--n", "2"],
    ["verify-all", "--n", "1_0"],
    ["verify-all", "--seed", "1_0"],
    ["verify-all", "--seed", "+3"],
    ["verify-all", "--seed", "\u0663"],
    ["verify-all", "--seed", "03"],
    ["verify-all", "--seed", "-0"],
])
def test_integer_flags_take_only_the_form_str_writes(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, flag", [(["kostka", "--n", "0"], "--n"), (["verify-all", "--N", "0"], "--N")])
def test_zero_counts_are_refused(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: expected a positive integer, got 0\n")


def test_negative_seed_still_runs(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--n", "2", "--N", "1", "--seed", "-3", "--json")
    assert code == 0 and json.loads(out)["seed"] == "-3"


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


def test_wilson_column_off_its_block_fails_the_component_lines(capsys, monkeypatch):
    # A quotient one off in its constant term: wilson_embed still fits each
    # column's line at its own root, but the column no longer vanishes at the
    # other roots, so the embedding must not pass.
    from cmkostka import cm

    genuine = cm._divide_by_double_root

    def corrupted(coeffs, r):
        quotient = genuine(coeffs, r)
        return [quotient[0] + 1] + quotient[1:]

    monkeypatch.setattr(cm, "_divide_by_double_root", corrupted)
    code, out, _ = run_cli(capsys, "verify-all")
    assert code == 1
    assert any(line.startswith("FAIL embedding-component-lines: ") for line in out.splitlines())


def _points_built_at_each_draw(rng, count, max_n):
    """Reference sampler: the same rng calls, each Fraction built where it is drawn."""
    points = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        den = rng.choice((1, 2, 3))
        numerators = rng.sample(range(-4 * max_n - 4, 4 * max_n + 5), n)
        alpha = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)]
        points.append(([Fraction(v, den) for v in numerators], alpha))
    return points


def test_sampler_draws_the_reference_points():
    for seed in range(4):
        for max_n in (1, 5, 12):
            rng, reference = random.Random(seed), random.Random(seed)
            got = [(list(p.y), list(p.alpha)) for p in verify._random_points(rng, 40, max_n)]
            assert got == _points_built_at_each_draw(reference, 40, max_n)
            assert rng.random() == reference.random()


@pytest.mark.parametrize("wrong", [(3, 3, 1, 1), (3, 2, 2, 1)])
def test_conjugation_checks_fail_when_a_conjugate_pair_shares_wrong_hooks(monkeypatch, wrong):
    # Both wrong multisets have the right count and sum, and each is given to
    # 3,1 and its transpose 2,1,1 alike, so comparing two hook_lengths results
    # would pass.  (3, 3, 1, 1) has no Kostka polynomial, so the Kostka check
    # crashes; (3, 2, 2, 1) is the multiset of 2,2, so it compares.
    real = partitions._hook_lengths
    pair = ((3, 1), (2, 1, 1))
    monkeypatch.setattr(partitions, "_hook_lengths", lambda parts: wrong if parts in pair else real(parts))
    names = ["hook-count-and-sum", "hook-conjugation-invariance", "kostka-conjugation-invariance"]
    counts, hooks, kostkas = verify.run_checks(names=names)
    assert (counts.passed, counts.items) == (True, 139)
    assert (hooks.passed, hooks.items) == (False, 9)
    assert hooks.detail == f"lambda=3,1: hooks {wrong} != conjugate hooks (4, 2, 1, 1)"
    assert not kostkas.passed
    if wrong == (3, 2, 2, 1):
        assert (kostkas.items, kostkas.detail) == (9, "lambda=3,1: polynomial differs from conjugate's")
    else:
        assert kostkas.detail.startswith("raised NonExactDivision")


def test_randomized_checks_draw_under_their_registry_names(monkeypatch):
    # each generator comes from the seed and the check's own registry name
    labels = []
    genuine = verify._Limits.rng

    def spy(self, name):
        labels.append(name)
        return genuine(self, name)

    monkeypatch.setattr(verify._Limits, "rng", spy)
    assert all(result.passed for result in verify.run_checks(n=3, N=2))
    assert len(labels) == len(set(labels)) == 9
    assert set(labels) <= set(verify.check_names())


P21 = Partition((2, 1))
G21 = GammaPartition((P21,))


def _off_at(label, change):
    """A patch factory: the genuine kernel with change applied to its value
    at the one input label, its first argument."""
    return lambda genuine: lambda x, *rest: change(genuine(x, *rest)) if x == label else genuine(x, *rest)


def _bumped(label):
    """A patch factory for the expanders: one more path to label, when it has
    the expansion's size.  Each expansion holds a fresh dict, so no cached
    level changes."""

    def bump(expansion):
        if label.size == expansion.n:
            expansion.coefficients[label] = expansion.coefficients.get(label, 0) + 1
        return expansion

    return lambda genuine: lambda *args: bump(genuine(*args))


def _edge_sign(a):
    """The constant -1 or 1, the sign of a's top coefficient times its bottom
    one: multiplicative, and kept by inversion, which swaps the two."""
    return LaurentPoly({0: -1 if a and a.coeffs[a.max_exponent()] * a.coeffs[a.min_exponent()] < 0 else 1})


_Q = LaurentPoly({1: 1})
_ONE = LaurentPoly({0: 1})
_POINT = r"y=\[.*\]"
_POLY = r"-?[0-9q^*+\- ]+"

# (check, namespace, kernel, patch factory, detail pattern): each patch breaks
# one kernel the check reads, and the detail must name the offending input
BROKEN_KERNELS = [
    ("hook-count-and-sum", verify, "hook_lengths", _off_at(P21, lambda h: h[1:]),
     r"lambda=2,1: hooks \(1, 1\) vs size 3, sum 2 != 5"),
    ("tableau-count-oracle", verify, "syt_enumerate", _off_at(P21, lambda m: m + 1),
     r"lambda=2,1: hook formula 2 != corner recursion 3"),
    ("tableau-square-sum", verify, "syt_count", _off_at(P21, lambda m: m + 1),
     r"n=3: sum of squared tableau counts 11 != 6"),
    ("wreath-order-sum", verify, "gamma_dimension", _off_at(G21, lambda m: m + 1),
     r"N=1 n=3: sum of squared dimensions 11 != 6"),
    ("division-round-trip", verify, "exact_divide", lambda genuine: lambda a, b: genuine(a, b) + _Q,
     rf"\(a\*b\)/b != a for a = {_POLY}, b = {_POLY}"),
    ("inverse-substitution", verify, "substitute_inverse", lambda genuine: lambda a: genuine(a) + _Q,
     rf"double inversion changed {_POLY}"),
    # q times the inversion is still an involution, but not multiplicative
    ("inverse-substitution", verify, "substitute_inverse", lambda genuine: lambda a: genuine(a) * _Q,
     rf"inversion not multiplicative on a = {_POLY}, b = {_POLY}"),
    # so is the inversion times _edge_sign, but it is not additive
    ("inverse-substitution", verify, "substitute_inverse", lambda genuine: lambda a: genuine(a) * _edge_sign(a),
     rf"inversion not additive on a = {_POLY}, b = {_POLY}"),
    ("evaluation-multiplicative", verify, "evaluate_at_one", lambda genuine: lambda a: genuine(a) + 1,
     rf"value at 1 not multiplicative on a = {_POLY}, b = {_POLY}"),
    ("tangent-weights-negated-hooks", verify, "tangent_weights", _off_at(P21, lambda w: w[1:]),
     r"lambda=2,1: tangent weights \(-1, -1\) != negated hooks \(-3, -1, -1\)"),
    ("kostka-normalization", verify, "kostka", _off_at(P21, lambda k: k * _Q),
     r"lambda=2,1: constant term of q \+ q\^2 is not 1"),
    ("kostka-normalization", verify, "kostka", _off_at(P21, lambda k: k + LaurentPoly({1: -2})),
     r"lambda=2,1: negative coefficient in 1 - q"),
    ("kostka-dimension-at-one", verify, "kostka", _off_at(P21, lambda k: k + _ONE),
     r"lambda=2,1: value at 1 is 3, tableau count 2"),
    ("kostka-major-index-oracle", verify, "kostka", _off_at(P21, lambda k: k * _Q),
     r"lambda=2,1: q \+ q\^2 != major-index polynomial 1 \+ q"),
    ("wreath-kostka-factorization", verify, "kostka_wreath", _off_at(G21, lambda k: k * _Q),
     r"Lambda=2,1: q \+ q\^2 != factored form 1 \+ q"),
    ("character-palindrome-square", verify, "character",
     _off_at(P21, lambda r: dataclasses.replace(r, character=r.character * _Q)),
     r"lambda=2,1: character 1 \+ 2\*q \+ q\^2 not palindromic"),
    ("character-palindrome-square", verify, "character",
     _off_at(P21, lambda r: dataclasses.replace(r, dimension=r.dimension + 1)),
     r"lambda=2,1: character at 1 is 4, dimension squared 9"),
    ("multiplicity-hook-oracle", verify, "expand_p1n", _bumped(P21),
     r"lambda=2,1: path count 3 != hook formula 2"),
    ("multiplicity-square-sum", verify, "expand_p1n", _bumped(P21),
     r"n=3: sum of squared multiplicities 11 != 6"),
    ("wreath-multiplicity-square-sum", verify, "expand_p1n_wreath", _bumped(G21),
     r"N=1 n=3: sum of squared multiplicities 11 != 6"),
    ("wreath-slot-symmetry", verify, "expand_p1n_wreath", _bumped(GammaPartition((Partition((1,)), Partition(())))),
     r"N=2 n=1: slot permutation \(1, 0\) changed the expansion"),
    # multiplicity_identity_check's three identities, one patch each: the hook
    # product divides n!, the quotient is the dimension, and the Kostka value
    ("wreath-dimension-chain", schur, "hook_lengths", _off_at(P21, lambda h: (4,) + h[1:]),
     r"N=1 n=3: dimension bookkeeping failed"),
    ("wreath-dimension-chain", schur, "gamma_dimension", _off_at(G21, lambda m: m + 1),
     r"N=1 n=3: dimension bookkeeping failed"),
    ("wreath-dimension-chain", schur, "kostka_wreath", _off_at(G21, lambda k: k + _ONE),
     r"N=1 n=3: dimension bookkeeping failed"),
    # X doubled: YX - XY + I becomes 2 v w^T - I, of full rank from n = 2 on
    ("rank-one-random-points", verify, "wilson_representative",
     lambda genuine: lambda point: (genuine(point)[0].scaled(2), genuine(point)[1]),
     rf"{_POINT}: commutator plus identity has rank 6"),
    ("scaling-preserves-rank-one", verify, "cstar_act", lambda genuine: lambda c, x, y: (x, y.scaled(c)),
     rf"{_POINT}, c=-?[0-9/]+: scaling broke the rank-one condition"),
    ("involution-preserves-rank-one", verify, "involution", lambda genuine: lambda x, y: genuine(x.scaled(2), y),
     rf"{_POINT}: involution broke the rank-one condition"),
    ("eigenvalue-polynomial-match", verify, "poly_from_roots", lambda genuine: lambda roots: genuine([*roots, 0]),
     rf"{_POINT}: characteristic polynomial mismatch"),
    ("profile-round-trip", verify, "schubert_profile", lambda genuine: lambda s: genuine(s).conjugate(),
     r"lambda=2: profile of its fixed subspace came back as 1,1"),
    # wilson_embed's own certificate raises on a broken embedding, so the
    # check's comparison is reached through the projection
    ("embedding-component-lines", verify, "component_line",
     lambda genuine: lambda point, y_i: (1, genuine(point, y_i)[1] + 1),
     r"y_i=14: projected line \(1, 6\) != \(1, 5\)"),
    ("embedding-block-factorization", verify, "poly_mul", lambda genuine: lambda a, b: genuine(a, b) + [1],
     rf"{_POINT} and {_POINT}: joint ideal is not the product of the two factors"),
    # a line that moves with the embedding's size parts the joint from its factors
    ("embedding-block-factorization", verify, "component_line",
     lambda genuine: lambda point, y_i: (1, genuine(point, y_i)[1] + point.n),
     r"component line at -?[0-9/]+ differs between joint and factor embeddings"),
]


def _row_ids(rows):
    """check:kernel for each row, with -2, -3, ... on a pair's later rows."""
    bases = [f"{name}:{kernel}" for name, _, kernel, *_ in rows]
    counts = [bases[: k + 1].count(base) for k, base in enumerate(bases)]
    return [base if count == 1 else f"{base}-{count}" for base, count in zip(bases, counts)]


@pytest.mark.parametrize("name, namespace, kernel, patch, detail", BROKEN_KERNELS, ids=_row_ids(BROKEN_KERNELS))
def test_every_check_fails_on_a_broken_kernel(capsys, monkeypatch, name, namespace, kernel, patch, detail):
    monkeypatch.setattr(verify, "_REGISTRY", tuple(entry for entry in verify._REGISTRY if entry[0] == name))
    monkeypatch.setattr(namespace, kernel, patch(getattr(namespace, kernel)))
    code, out, err = run_cli(capsys, "verify-all")
    assert (code, err) == (1, "")
    failed, summary = out.splitlines()
    assert re.fullmatch(f"FAIL {name}: {detail}", failed), failed
    assert summary == f"1 checks, 1 failed: {name}"


@pytest.mark.parametrize("weight", [0, 2])
def test_nonnegative_tangent_weight_fails_the_sign_split(monkeypatch, weight):
    monkeypatch.setattr(verify, "tangent_weights", lambda lam: (-1, weight))
    (result,) = verify.run_checks(names=["tangent-weights-sign-split"], n=3)
    assert (result.passed, result.items) == (False, 1)
    assert result.detail == f"lambda=-: nonnegative tangent weight in (-1, {weight})"


def test_a_map_that_is_not_of_order_two_fails_the_involution_check(monkeypatch):
    # scaling by 2 keeps every pair rank one, but applying it twice scales by 4
    from cmkostka.cm import cstar_act

    monkeypatch.setattr(verify, "involution", lambda x, y: cstar_act(2, x, y))
    (result,) = verify.run_checks(names=["involution-preserves-rank-one"], n=3)
    assert not result.passed
    assert result.detail.endswith(": applying the involution twice changed the pair")


BAD_LIMITS = [
    ({"n": 0}, ValueError), ({"n": -2}, ValueError), ({"N": 0}, ValueError), ({"N": -3}, ValueError),
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
    verify.run_checks(n=True, N=2, seed=-4)
    assert [(lim.n, lim.N, lim.seed) for lim in calls] == [(1, 2, -4)]


@pytest.mark.parametrize("names", ["tableau-square-sum", ""])
def test_run_checks_refuses_a_bare_string_of_names(monkeypatch, names):
    # a str is a collection of letters, which would read as unknown checks or as none
    calls = []
    monkeypatch.setattr(verify, "_REGISTRY", (("tableau-square-sum", lambda lim: calls.append(lim) or (1, "")),))
    with pytest.raises(TypeError, match="names"):
        verify.run_checks(names=names)
    assert calls == []
    for good in (["tableau-square-sum"], ("tableau-square-sum",)):
        (result,) = verify.run_checks(names=good)
        assert (result.name, result.passed, result.items) == ("tableau-square-sum", True, 1)


def test_run_checks_reads_names_from_an_iterator_once():
    names = ["hook-count-and-sum", "tableau-square-sum"]
    assert [r.name for r in verify.run_checks(names=iter(names), n=2)] == names
    assert [r.name for r in verify.run_checks(names=(name for name in names[1:]), n=2)] == names[1:]
    with pytest.raises(ValueError, match=r"^unknown checks: \['no-such-check'\]$"):
        verify.run_checks(names=[*names, "no-such-check"])


def test_tableau_size_cap_is_not_an_option(capsys):
    # --n alone lowers the tableau-count-oracle cap, so there is no --max-size
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--max-size", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-size" in capsys.readouterr().err
    with pytest.raises(TypeError):
        verify.run_checks(max_size=3)


def test_large_limits_only_lower_caps(capsys):
    # every check runs to min(its default, --n) and min(its default, --N), so
    # limits above the defaults change nothing and no size bound can be reached
    assert run_cli(capsys, "verify-all", "--n", "1000", "--N", "1000") == (0, VERIFY_ALL_DEFAULT, "")


# SHA-256 of exit status, stdout and stderr for every command in text and
# --json, single label and batch, usage errors and cap refusals: any change
# to any rendering shows here.
CLI_DIGESTS = [
    ("kostka --partition 3,1", "498f1b4590dda9921f4d20ae1a13194cbb113db4703f2371e3105b2e274b47e8"),
    ("kostka --partition 3,1 --json", "42ec67a9ebc4bedbea29fccd5312edd46f67fbd04b2cf479f6cbb71da8fce40a"),
    ("kostka --gamma-partition 2,1;-;1", "a5be9dba1028b3f76b963a4caa09f8a674c0abdbd87f02eff6cd3440038cb9aa"),
    (
        "kostka --gamma-partition 2,1;-;1 --json",
        "2d5b4884f0710cf0faecd28767083917c2a2176ef63810f62b148c90b4f6d3bc",
    ),
    ("kostka --n 5", "c85190abb433e9eec211aba2649ba1c9ee1917b4edcc8fee92aaa1c62d175cee"),
    ("kostka --n 5 --json", "1cbf77283013993fadcdc8d7c7961c9040939ff5bfaf57645f5913248de5aef6"),
    ("kostka --N 2 --n 3", "57333b9f2446e10ba10d75cfb749cab6c15db0bb96e950798f4826d387477a4d"),
    ("kostka --N 2 --n 3 --json", "fe199004df894840cf5cd059341f4c096ce52d349e83f47358bf4f7ade971d33"),
    ("kostka --N 4 --n 8", "489c2f9ae06b20d8858e0d9d8e15e796a31c2111aff480c022393ad106f71c63"),
    ("character --partition 3,1", "dc173040eded179a207ecde8cf917c763ff45a650e2377b1e18b69360b283f9f"),
    ("character --partition 3,1 --json", "0c0f6b537489c493ec822470472a919bcc8fa321318c3409eb31ed9d93f9df16"),
    (
        "character --gamma-partition 2,1;-;1",
        "f6b05879282143e56579eeb7f929c4e684ea459ec88701c301b32214172a69f4",
    ),
    (
        "character --gamma-partition 2,1;-;1 --json",
        "6f165e1b5b8f34cc1016a5bffd85ff8ebbfb740a66807e2919f2ca21d56846cd",
    ),
    ("character --n 5", "754943a4e73d85e0b8993ea024319c104a4f1e1ab03535dade7b7f00f0a5b33c"),
    ("character --n 5 --json", "1bd651f8202acc4ee82091e76592ed3203142a1100f56ed79eb89da7a5bb0769"),
    ("character --N 2 --n 3", "32f771d31b714345c3402475ffe278c61684203f802299a40db95e13cda55f2d"),
    ("character --N 2 --n 3 --json", "0d1e871e9116e249cda138a9b8dfce7f313cb9653fcfb13bb82a0fb9fd828c80"),
    # the batch cap, and the last n whose Kostka words are 64 bits wide (20! < 2^64 < 21!)
    ("character --n 20", "4abaa219c924bcb1c78d9de25236be365145a4a01eabe8f971b8ea93b700b461"),
    ("character --n 20 --json", "1d67bd14b25289e48a7c19fe9e9a3d824881ddd46854239874f094bccf16046c"),
    # a batch in which many labels share one hook multiset, hence one cached character
    ("character --N 4 --n 6", "9abae64aa392f9771503d4e38cbd233719b259335309e55f3ca6e87658715940"),
    ("character --N 4 --n 6 --json", "c3c9ca3d3aba63bfab25a33323aafe81449fb03c3bf3c5eb2c1379654b3dd74d"),
    ("tangent --partition 3,2,1", "07afeb32d062ec99493919df91c0a976a3cfef3a07d96cf434bf34a978e4353f"),
    ("tangent --partition 3,2,1 --json", "d83b6d376d9832405798f1f6b49dc3315c6cead8fa3683d422fc195eee697cad"),
    ("tangent --partition -", "df1148031ada5c8b5b0073e62af49a6fdc2c3859f28c69ed31b75fc7ed829105"),
    ("tangent --partition - --json", "bea5698134f78dc10e0b12946efaca3f6127ffbf102bf41a2e0ab1c53cb6df0a"),
    ("tangent --n 5", "0830542ad0b4174b29140dd6727abe0c86ac416239ffa635566effab98bfce0c"),
    ("tangent --n 5 --json", "a60ae866609b3f325daf70e916bfcc9ddecb1d18d03396d3b9490b0342c94b02"),
    ("tangent --n 16", "d380a4a2b40c0391d7ffc31ba7d5c1618a4ea84757d11c28e2b74ba93bd44eaf"),
    ("tangent --n 16 --json", "4f014520fbd10a01ab8e2e79154559fe65439ae1bf3d9a3bb0681f2111258287"),
    ("schur-p1n --n 4", "02c605e87b9cadb0c92ddc617de341bea6aefcb40185e7b7c51446029785c4c2"),
    ("schur-p1n --n 4 --json", "68d61a25846e4e458659d4c6d9ba8e5f895a87e8f50b4563cbc350d088fd4eda"),
    ("schur-p1n --N 2 --n 3", "a5c6369bc692735b94cd50171c68a0b2261d48651dd050bd11abdbcf60bbfb5c"),
    ("schur-p1n --N 2 --n 3 --json", "1baef37709e856d45ec143beec6af43d89aecf68e2d550c359c679bd5e066b51"),
    ("wreath --N 2 --n 3", "59f0021c18774f640600fda326f90ff488b25cbd6d3a1f0bc0bb027ee62b1f54"),
    ("wreath --N 2 --n 3 --json", "3f4e56d4dd5c0e119c67807b139f81b973777ee07063203dd84ddf66732de61a"),
    ("verify-all --n 3 --N 2 --seed 7", "43b7a71b4860e74077c25546d8b602f2116536053dc98d8bd1d6d1092df63d6b"),
    (
        "verify-all --n 3 --N 2 --seed 7 --json",
        "8c728b69144674465285bda170009797df03443bf146f6a8448169c5f785db49",
    ),
    (
        "verify-all --n 3 --N 2 --inject-hook-corruption",
        "3df4ec9a8fa8fe744a6e43a58fd96cdd5e7c4bd490086f6eb730db5b90d22d86",
    ),
    (
        "verify-all --n 3 --N 2 --inject-hook-corruption --json",
        "51c7078320f7ff1f0baa39e9559860bf5d4bfa1ec53b1531fed18cbb7887adfe",
    ),
    (
        "cm-verify --y 0,1,5/2 --alpha 1/2,0,3",
        "e8bbefaf31ed4c608572063ea795297fd237ba2a0b615b7fee6dc35bca02d0ab",
    ),
    (
        "cm-verify --y 0,1,5/2 --alpha 1/2,0,3 --json",
        "9734f81f1c325854ab316b867986c9a1931c61c90266ea0f27f008e5493fc524",
    ),
    (
        "cm-embed --y 0,1,5/2 --alpha 1/2,0,3",
        "4127637bb6c395887938afd884d04af693628fb473c369196465e8aa45f4d5cf",
    ),
    (
        "cm-embed --y 0,1,5/2 --alpha 1/2,0,3 --json",
        "fde178cd71d3f98ff8039b76071b9ca46924eb3da6a14bf71e2e94eff500a1eb",
    ),
    # larger batches: Kostka and character words of many sizes, and the
    # largest Pieri levels and wreath label lists the batch caps allow
    ("character --n 12", "640ad6bca2f1f550b1510331305fdd1fe4935844deefdc0b404515168b2eb014"),
    ("character --N 3 --n 6", "0e0b3fb647c69b521264ea11e62fecb91d36aba807b321d7ab0bad236e610de1"),
    ("kostka --n 14", "6735261770036c8095511491e27d40f5d8ae13c1d8acd1c934845ff236b7949c"),
    ("schur-p1n --n 20", "6a1a9848b67309d63e8e60b73489ce6728f3417cfbfdc7a14a9b55a8035c93a7"),
    ("schur-p1n --N 4 --n 10", "4a6cf2c2123ce1eb9e79445bba99516c4b938a1dcce22201b913a181497fc28f"),
    ("schur-p1n --N 4 --n 10 --json", "9aa453c15dfe8567ee51e6e03c789192a1f803c71b88027e5e8122eab4e8440a"),
    ("wreath --N 4 --n 10", "7c201a10732fae2af78a5b590731c309b03976c5680013cb4c09dcb8bf5be6da"),
    ("kostka --partition 2,0", "9631dc7b955240456c93aee62640491ce47201308a887cd2650f1911706f0fc0"),
    ("kostka --partition 2,0 --json", "9631dc7b955240456c93aee62640491ce47201308a887cd2650f1911706f0fc0"),
    ("kostka --partition 3,1 --N 5", "dcc92271dbedaf61084caf2a5edfe54de54d894069af3e04a2e4d6bc144ff3d7"),
    (
        "kostka --partition 3,1 --N 5 --json",
        "dcc92271dbedaf61084caf2a5edfe54de54d894069af3e04a2e4d6bc144ff3d7",
    ),
    (
        "character --gamma-partition 1;1 --N 3",
        "1f621c7f84f3219980299f4bbebcfd65bd8ad586e98e19dfef71912956837aa1",
    ),
    (
        "character --gamma-partition 1;1 --N 3 --json",
        "1f621c7f84f3219980299f4bbebcfd65bd8ad586e98e19dfef71912956837aa1",
    ),
    ("kostka --n 21", "2046706831bc557e23c7c5d6a6fbfc9c8e2fc2c9f42543c6ae087f6fde429407"),
    ("kostka --n 21 --json", "2046706831bc557e23c7c5d6a6fbfc9c8e2fc2c9f42543c6ae087f6fde429407"),
    ("character --N 5 --n 1", "db60e986e91aa60783e8195d42c564934f1cb7cf07c127f4274f8a3883bd9ad9"),
    ("character --N 5 --n 1 --json", "db60e986e91aa60783e8195d42c564934f1cb7cf07c127f4274f8a3883bd9ad9"),
    ("wreath --N 4 --n 11", "085085fa6ec807eb25bba714855f63f6def2a9b443294749e33cb2fad4851171"),
    ("wreath --N 4 --n 11 --json", "085085fa6ec807eb25bba714855f63f6def2a9b443294749e33cb2fad4851171"),
    ("schur-p1n --n 21", "2046706831bc557e23c7c5d6a6fbfc9c8e2fc2c9f42543c6ae087f6fde429407"),
    ("schur-p1n --n 21 --json", "2046706831bc557e23c7c5d6a6fbfc9c8e2fc2c9f42543c6ae087f6fde429407"),
    ("cm-verify --y 0,0 --alpha 1,2", "fce6a5382458e7ea0820b67b5a95d6b410547fb2bcd32babc1c77ab5157238de"),
    (
        "cm-verify --y 0,0 --alpha 1,2 --json",
        "fce6a5382458e7ea0820b67b5a95d6b410547fb2bcd32babc1c77ab5157238de",
    ),
    ("cm-embed --y 0,1 --alpha 1", "253c9abf1cdcb0e43b8fb2d2703e80c172695b681d9a45a305398ecf74064184"),
    ("cm-embed --y 0,1 --alpha 1 --json", "253c9abf1cdcb0e43b8fb2d2703e80c172695b681d9a45a305398ecf74064184"),
]


def _invocation_digest(argv):
    """SHA-256 of "<exit>\\0<stdout>\\0<stderr>" for one in-process run of main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


@pytest.mark.parametrize("command, digest", CLI_DIGESTS, ids=[c for c, _ in CLI_DIGESTS])
def test_cli_renderings_are_pinned(command, digest):
    assert _invocation_digest(command.split()) == digest


def _falsified_wreath(capsys, *flags):
    code, out, err = run_cli(capsys, "wreath", "--N", "2", "--n", "2", *flags)
    assert (code, err) == (1, "")
    return out


def test_wreath_reports_a_dimension_that_breaks_the_order_sum(capsys, monkeypatch):
    real = cli.gamma_dimension
    monkeypatch.setattr(cli, "gamma_dimension", lambda gp: real(gp) + 1)
    lines = _falsified_wreath(capsys).splitlines()
    assert lines[-2:] == ["verified: false", "falsified: kostka value at 1 differs from dimension at 2;-"]
    data = json.loads(_falsified_wreath(capsys, "--json"))
    assert data["verified"] is False and data["labels"][0]["dimension"] == "2"


def test_wreath_reports_a_sum_of_squares_off_the_group_order(capsys, monkeypatch):
    # Dimension and Kostka polynomial move together, so each label still agrees
    # at q = 1 and only the order identity fails.
    real_dimension, real_kostka = cli.gamma_dimension, cli.kostka_wreath
    monkeypatch.setattr(cli, "gamma_dimension", lambda gp: 2 * real_dimension(gp))
    monkeypatch.setattr(cli, "kostka_wreath", lambda gp: real_kostka(gp) + real_kostka(gp))
    lines = _falsified_wreath(capsys).splitlines()
    assert lines[-4:] == [
        "sum of squared dimensions: 32",
        "wreath group order: 8",
        "verified: false",
        "falsified: sum of squared dimensions 32 != group order 8",
    ]
    data = json.loads(_falsified_wreath(capsys, "--json"))
    assert (data["verified"], data["sum_of_squares"], data["group_order"]) == (False, "32", "8")


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "cmkostka.cli", "kostka", "--partition", "2,1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "2,1: 1 + q\n"
