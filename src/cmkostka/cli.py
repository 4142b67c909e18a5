"""Command-line front end.

Every command renders deterministically: identical arguments (and seed, where
one applies) produce byte-identical output.  Exit status 0 means success or
verified, 1 means some identity was falsified, 2 means a usage error.

Each ``_cmd_*`` handler computes its result once and returns ``(payload, lines,
code)``: a zero-argument callable building the JSON object, a lazy iterable of
text lines, and the exit status.  The two forms may draw on one lazy result, so
only one is consumed: ``main`` alone reads ``--json``, prints that form and
returns the code; a ``ValueError`` becomes ``error: ...`` on stderr and exit 2.
"""

import argparse
import json
import re
import sys
from fractions import Fraction
from itertools import chain
from math import factorial

from .characters import character, kostka, kostka_wreath, tangent_weights
from .cm import CMPointRegular, verify_cm, wilson_embed, wilson_representative
from .partitions import (
    _DECIMAL,
    BoundExceeded,
    enumerate_gamma_partitions,
    enumerate_partitions,
    gamma_dimension,
    parse_gamma_partition,
    parse_partition,
)
from .qpoly import evaluate_at_one
from .schur import expand_p1n, expand_p1n_wreath
from .verify import run_checks


# Integer and rational flag values are read only in the form str writes them:
# "03", "+3", "1_0", "1.5", "1e2" and non-ASCII digits are refused, not reread.
_RATIONAL = re.compile(rf"(?:{_DECIMAL.pattern})(?:/[1-9][0-9]*)?")


def _integer(text):
    if not _DECIMAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text}")
    return int(text)


def _positive(text):
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _rational_list(text):
    values = []
    for token in text.split(","):
        token = token.strip()
        if not _RATIONAL.fullmatch(token):
            raise argparse.ArgumentTypeError(f"expected rationals as p/q or integers, got {token!r}")
        values.append(Fraction(token))
    return values


def _strs(values):
    return [str(v) for v in values]


def _one_or_all(entries, single):
    """A named label renders as one object, an --n batch as a list."""
    return entries[0] if single else entries


# Largest batches kostka, character, schur-p1n and wreath accept.  Every label
# of a batch is computed and rendered, and the label count grows fast in n and
# N, so the caps bound how long one command can run.
_MAX_BATCH_n = 20
_MAX_BATCH_N, _MAX_BATCH_WREATH_n = 4, 10


def _labels_for(args, capped=False):
    """Resolve --partition/--gamma-partition/--n [--N] into (labels, single).

    The one resolver of kostka, character, tangent, schur-p1n and wreath.
    single is true when one label was named rather than an --n batch, which
    renders as a batch even when it holds one label.  --N is a usage error
    with --partition, and with --gamma-partition unless it equals the label's
    component count.  With capped, an --n batch above the caps is refused
    before any label is enumerated; tangent alone runs uncapped.
    """
    N = getattr(args, "N", None)
    if getattr(args, "partition", None) is not None:
        if N is not None:
            raise ValueError("--N does not apply to --partition")
        return [parse_partition(args.partition)], True
    if getattr(args, "gamma_partition", None) is not None:
        label = parse_gamma_partition(args.gamma_partition)
        if N is not None and N != label.N:
            raise ValueError(f"--N {N} but {label} has {label.N} components")
        return [label], True
    if N is None:
        if capped and args.n > _MAX_BATCH_n:
            raise BoundExceeded(f"--n {args.n} exceeds the batch cap n <= {_MAX_BATCH_n}")
        return list(enumerate_partitions(args.n)), False
    if capped and (N > _MAX_BATCH_N or args.n > _MAX_BATCH_WREATH_n):
        raise BoundExceeded(
            f"--N {N} --n {args.n} exceeds the wreath batch caps N <= {_MAX_BATCH_N}, n <= {_MAX_BATCH_WREATH_n}"
        )
    return list(enumerate_gamma_partitions(N, args.n)), False


def _cmd_kostka(args):
    labels, single = _labels_for(args, capped=True)
    rows = ((label, kostka(label)) for label in labels)
    return (
        lambda: _one_or_all([{"lambda": str(label), "kostka": k.to_json_dict()} for label, k in rows], single),
        (f"{label}: {k}" for label, k in rows),
        0,
    )


def _character_lines(reports, single):
    for r in reports:
        if single:
            yield from (f"lambda: {r.label}", f"kostka: {r.kostka}", f"character: {r.character}")
            yield f"dimension: {r.dimension}"
        else:
            yield f"{r.label}: {r.character} (dimension {r.dimension})"


def _cmd_character(args):
    labels, single = _labels_for(args, capped=True)
    reports = map(character, labels)
    entries = (
        {
            "lambda": str(r.label),
            "kostka": r.kostka.to_json_dict(),
            "character": r.character.to_json_dict(),
            "dimension": str(r.dimension),
        }
        for r in reports
    )
    return lambda: _one_or_all(list(entries), single), _character_lines(reports, single), 0


def _cmd_tangent(args):
    labels, single = _labels_for(args)
    rows = ((label, _strs(tangent_weights(label))) for label in labels)
    return (
        lambda: _one_or_all([{"lambda": str(label), "weights": weights} for label, weights in rows], single),
        (f"{label}: {','.join(weights) or '-'}" for label, weights in rows),
        0,
    )


def _cmd_schur_p1n(args):
    labels, _ = _labels_for(args, capped=True)
    expansion = expand_p1n(args.n) if args.N is None else expand_p1n_wreath(args.N, args.n)
    rows = [(label, expansion.coefficients.get(label, 0)) for label in labels]
    return (
        lambda: [{"lambda": str(label), "m": str(m)} for label, m in rows],
        (f"{label}: {m}" for label, m in rows),
        0,
    )


def _cmd_wreath(args):
    labels, _ = _labels_for(args, capped=True)
    rows = [(gp, kostka_wreath(gp), gamma_dimension(gp)) for gp in labels]
    total = sum(dim * dim for _, _, dim in rows)
    order = args.N**args.n * factorial(args.n)
    bad = next((gp for gp, k, dim in rows if evaluate_at_one(k) != dim), None)
    verified = total == order and bad is None

    def payload():
        return {
            "N": str(args.N),
            "n": str(args.n),
            "labels": [
                {"lambda": str(gp), "kostka": k.to_json_dict(), "dimension": str(dim)} for gp, k, dim in rows
            ],
            "sum_of_squares": str(total),
            "group_order": str(order),
            "verified": verified,
        }

    def lines():
        for gp, k, dim in rows:
            yield f"{gp}: dimension={dim} kostka={k}"
        yield f"sum of squared dimensions: {total}"
        yield f"wreath group order: {order}"
        yield f"verified: {'true' if verified else 'false'}"
        if bad is not None:
            yield f"falsified: kostka value at 1 differs from dimension at {bad}"
        elif not verified:
            yield f"falsified: sum of squared dimensions {total} != group order {order}"

    return payload, lines(), 0 if verified else 1


def _point_json(point, **fields):
    return {"y": _strs(point.y), "alpha": _strs(point.alpha), **fields}


def _cmd_cm_verify(args):
    point = CMPointRegular(args.y, args.alpha)
    ok, m, pair = verify_cm(*wilson_representative(point))
    rows = [_strs(row) for row in m.entries]
    witness = None if pair is None else {"column": _strs(pair[0]), "row": _strs(pair[1])}
    return (
        lambda: _point_json(point, verified=ok, commutator_plus_identity=rows, witness=witness),
        chain(
            [f"n: {point.n}", f"verified: {'true' if ok else 'false'}", "commutator plus identity:"],
            ("  " + " ".join(row) for row in rows),
            (f"witness {side}: " + " ".join(values) for side, values in (witness or {}).items()),
        ),
        0 if ok else 1,
    )


def _cmd_cm_embed(args):
    point = CMPointRegular(args.y, args.alpha)
    embedded = wilson_embed(point)
    ideal, rows = _strs(embedded.ideal), [_strs(row) for row in embedded.subspace.entries]
    return (
        lambda: _point_json(point, ideal=ideal, subspace=rows),
        chain(
            [f"n: {point.n}", "ideal coefficients (low to high): " + " ".join(ideal)],
            ["subspace basis (columns, coefficients low to high):"],
            ("  " + " ".join(column) for column in zip(*rows)),
        ),
        0,
    )


def _cmd_verify_all(args):
    results = run_checks(n=args.n, N=args.N, seed=args.seed, corrupt_hooks=args.inject_hook_corruption)
    failed = [r.name for r in results if not r.passed]
    summary = f"{len(failed)} failed: " + ", ".join(failed) if failed else "all passed"

    def payload():
        checks = [
            {"name": r.name, "passed": r.passed, "items": str(r.items), "detail": r.detail} for r in results
        ]
        return {"seed": str(args.seed), "checks": checks, "passed": not failed}

    lines = (f"PASS {r.name} ({r.items} items)" if r.passed else f"FAIL {r.name}: {r.detail}" for r in results)
    return payload, chain(lines, [f"{len(results)} checks, {summary}"]), 1 if failed else 0


def _add_label_flags(parser, gamma=True):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--partition", help='partition text, e.g. "3,1,1"')
    if gamma:
        group.add_argument("--gamma-partition", dest="gamma_partition", help='component tuple, e.g. "2,1;-;1"')
    group.add_argument("--n", type=_positive, help="report every label of this total size")
    if gamma:
        parser.add_argument("--N", type=_positive, help="number of components (with --n)")


def _add_cm_flags(parser):
    parser.add_argument("--y", type=_rational_list, required=True, help='eigenvalues, e.g. "0,1,5/2"')
    parser.add_argument("--alpha", type=_rational_list, required=True, help='parameters, e.g. "1/2,0,3"')


def _command(sub, name, handler, help):
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(handler=handler)
    return parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cmkostka",
        description="Exact Kostka polynomials, fiber characters, and rank-one matrix pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_label_flags(_command(sub, "kostka", _cmd_kostka, "Kostka polynomial of a label"))
    _add_label_flags(_command(sub, "character", _cmd_character, "zero-fiber character report"))
    _add_label_flags(_command(sub, "tangent", _cmd_tangent, "fixed-point tangent weights"), gamma=False)

    p = _command(sub, "schur-p1n", _cmd_schur_p1n, "Schur expansion of the n-th power of p_1")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--N", type=_positive, help="expand over N-component labels instead")

    p = _command(sub, "wreath", _cmd_wreath, "wreath labels with dimensions and the order identity")
    p.add_argument("--N", type=_positive, required=True)
    p.add_argument("--n", type=_positive, required=True)

    _add_cm_flags(_command(sub, "cm-verify", _cmd_cm_verify, "rank-one check of the normal form built from y, alpha"))
    _add_cm_flags(_command(sub, "cm-embed", _cmd_cm_embed, "ideal and subspace basis of the embedded point"))

    p = _command(sub, "verify-all", _cmd_verify_all, "run every registered invariant check")
    p.add_argument("--n", type=_positive, help="cap on partition sizes and matrix ranks")
    p.add_argument("--N", type=_positive, help="cap on component counts")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--inject-hook-corruption", action="store_true", help=argparse.SUPPRESS)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        payload, lines, code = args.handler(args)
        if args.json:
            sys.stdout.write(json.dumps(payload(), indent=2) + "\n")
        else:
            sys.stdout.writelines(line + "\n" for line in lines)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
