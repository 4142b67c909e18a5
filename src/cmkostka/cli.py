"""Command-line front end.

Every command renders deterministically: identical arguments (and seed, where
one applies) produce byte-identical output.  Exit status 0 means success or
verified, 1 means some identity was falsified, 2 means a usage error.
"""

import argparse
import json
import sys
from fractions import Fraction
from math import factorial

from .characters import character, kostka, kostka_wreath, tangent_weights
from .cm import CMPointRegular, verify_cm, wilson_embed, wilson_representative
from .partitions import (
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


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _rational_list(text):
    values = []
    for token in text.split(","):
        token = token.strip()
        try:
            values.append(Fraction(token))
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"expected rationals as p/q or integers, got {token!r}"
            ) from None
    return values


def _emit(text):
    sys.stdout.write(text + "\n")


def _emit_json(obj):
    _emit(json.dumps(obj, indent=2))


def _kostka_entry(label):
    poly = kostka(label)
    return {"lambda": str(label), "kostka": poly.to_json_dict()}, poly


# Largest batches kostka, character, schur-p1n and wreath accept, from measured
# single runs: character --n 20 takes 2.3 s and character --N 4 --n 10 takes 3.3 s.
_MAX_BATCH_n = 20
_MAX_BATCH_N, _MAX_BATCH_WREATH_n = 4, 10


def _check_batch(N, n):
    """Refuse a batch above the caps before any label is enumerated."""
    if N is None:
        if n > _MAX_BATCH_n:
            raise BoundExceeded(f"--n {n} exceeds the batch cap n <= {_MAX_BATCH_n}")
    elif N > _MAX_BATCH_N or n > _MAX_BATCH_WREATH_n:
        raise BoundExceeded(
            f"--N {N} --n {n} exceeds the wreath batch caps N <= {_MAX_BATCH_N}, n <= {_MAX_BATCH_WREATH_n}"
        )


def _labels_for(args, capped=False):
    """Resolve --partition/--gamma-partition/--n [--N] into (labels, single).

    single is true when one label was named rather than an --n batch, which
    renders as a batch even when it holds one label.  --N is a usage error
    with --partition, and with --gamma-partition unless it equals the label's
    component count.  With capped, an --n batch above the caps is refused
    before it is enumerated.
    """
    N = getattr(args, "N", None)
    if args.partition is not None:
        if N is not None:
            raise ValueError("--N does not apply to --partition")
        return [parse_partition(args.partition)], True
    if getattr(args, "gamma_partition", None) is not None:
        label = parse_gamma_partition(args.gamma_partition)
        if N is not None and N != label.N:
            raise ValueError(f"--N {N} but {label} has {label.N} components")
        return [label], True
    if capped:
        _check_batch(N, args.n)
    if N is not None:
        return list(enumerate_gamma_partitions(N, args.n)), False
    return list(enumerate_partitions(args.n)), False


def _cmd_kostka(args):
    labels, single = _labels_for(args, capped=True)
    if args.json:
        entries = [_kostka_entry(label)[0] for label in labels]
        _emit_json(entries[0] if single else entries)
        return 0
    for label in labels:
        _, poly = _kostka_entry(label)
        _emit(f"{label}: {poly}")
    return 0


def _cmd_character(args):
    labels, single = _labels_for(args, capped=True)
    reports = [character(label) for label in labels]
    if args.json:
        entries = [
            {
                "lambda": str(r.label),
                "kostka": r.kostka.to_json_dict(),
                "character": r.character.to_json_dict(),
                "dimension": str(r.dimension),
            }
            for r in reports
        ]
        _emit_json(entries[0] if single else entries)
        return 0
    if single:
        r = reports[0]
        _emit(f"lambda: {r.label}")
        _emit(f"kostka: {r.kostka}")
        _emit(f"character: {r.character}")
        _emit(f"dimension: {r.dimension}")
    else:
        for r in reports:
            _emit(f"{r.label}: {r.character} (dimension {r.dimension})")
    return 0


def _cmd_tangent(args):
    labels, single = _labels_for(args)
    if args.json:
        entries = [
            {"lambda": str(label), "weights": [str(w) for w in tangent_weights(label)]}
            for label in labels
        ]
        _emit_json(entries[0] if single else entries)
        return 0
    for label in labels:
        weights = tangent_weights(label)
        _emit(f"{label}: {','.join(str(w) for w in weights) if weights else '-'}")
    return 0


def _cmd_schur_p1n(args):
    _check_batch(args.N, args.n)
    if args.N is None:
        expansion = expand_p1n(args.n)
        order = enumerate_partitions(args.n)
    else:
        expansion = expand_p1n_wreath(args.N, args.n)
        order = enumerate_gamma_partitions(args.N, args.n)
    rows = [(label, expansion.coefficients.get(label, 0)) for label in order]
    if args.json:
        _emit_json([{"lambda": str(label), "m": str(m)} for label, m in rows])
        return 0
    for label, m in rows:
        _emit(f"{label}: {m}")
    return 0


def _cmd_wreath(args):
    _check_batch(args.N, args.n)
    labels = enumerate_gamma_partitions(args.N, args.n)
    entries = []
    total = 0
    for gp in labels:
        k = kostka_wreath(gp)
        dim = gamma_dimension(gp)
        total += dim * dim
        entries.append((gp, k, dim, evaluate_at_one(k)))
    order = args.N**args.n * factorial(args.n)
    kostka_agrees = all(dim == at_one for _, _, dim, at_one in entries)
    verified = total == order and kostka_agrees
    if args.json:
        _emit_json(
            {
                "N": str(args.N),
                "n": str(args.n),
                "labels": [
                    {"lambda": str(gp), "kostka": k.to_json_dict(), "dimension": str(dim)}
                    for gp, k, dim, _ in entries
                ],
                "sum_of_squares": str(total),
                "group_order": str(order),
                "verified": verified,
            }
        )
    else:
        for gp, k, dim, _ in entries:
            _emit(f"{gp}: dimension={dim} kostka={k}")
        _emit(f"sum of squared dimensions: {total}")
        _emit(f"wreath group order: {order}")
        _emit(f"verified: {'true' if verified else 'false'}")
        if not verified:
            if not kostka_agrees:
                bad = next(gp for gp, _, dim, at_one in entries if dim != at_one)
                _emit(f"falsified: kostka value at 1 differs from dimension at {bad}")
            else:
                _emit(f"falsified: sum of squared dimensions {total} != group order {order}")
    return 0 if verified else 1


def _cmd_cm_verify(args):
    point = CMPointRegular(args.y, args.alpha)
    x, y = wilson_representative(point)
    ok, m, witness = verify_cm(x, y)
    if args.json:
        _emit_json(
            {
                "y": [str(v) for v in point.y],
                "alpha": [str(v) for v in point.alpha],
                "verified": ok,
                "commutator_plus_identity": [[str(v) for v in row] for row in m.entries],
                "witness": None
                if witness is None
                else {
                    "column": [str(v) for v in witness[0]],
                    "row": [str(v) for v in witness[1]],
                },
            }
        )
    else:
        _emit(f"n: {point.n}")
        _emit(f"verified: {'true' if ok else 'false'}")
        _emit("commutator plus identity:")
        for row in m.entries:
            _emit("  " + " ".join(str(v) for v in row))
        if witness is not None:
            column, row = witness
            _emit("witness column: " + " ".join(str(v) for v in column))
            _emit("witness row: " + " ".join(str(v) for v in row))
    return 0 if ok else 1


def _cmd_cm_embed(args):
    point = CMPointRegular(args.y, args.alpha)
    embedded = wilson_embed(point)
    if args.json:
        _emit_json(
            {
                "y": [str(v) for v in point.y],
                "alpha": [str(v) for v in point.alpha],
                "ideal": [str(c) for c in embedded.ideal],
                "subspace": [[str(v) for v in row] for row in embedded.subspace.entries],
            }
        )
    else:
        _emit(f"n: {point.n}")
        _emit("ideal coefficients (low to high): " + " ".join(str(c) for c in embedded.ideal))
        _emit("subspace basis (columns, coefficients low to high):")
        for j in range(embedded.subspace.cols):
            col = [embedded.subspace.entries[r][j] for r in range(embedded.subspace.rows)]
            _emit("  " + " ".join(str(v) for v in col))
    return 0


def _cmd_verify_all(args):
    results = run_checks(
        n=args.n,
        N=args.N,
        seed=args.seed,
        corrupt_hooks=args.inject_hook_corruption,
        max_size=args.max_size,
    )
    failed = [r for r in results if not r.passed]
    if args.json:
        _emit_json(
            {
                "seed": str(args.seed),
                "checks": [
                    {
                        "name": r.name,
                        "passed": r.passed,
                        "items": str(r.items),
                        "detail": r.detail,
                    }
                    for r in results
                ],
                "passed": not failed,
            }
        )
    else:
        for r in results:
            if r.passed:
                _emit(f"PASS {r.name} ({r.items} items)")
            else:
                _emit(f"FAIL {r.name}: {r.detail}")
        if failed:
            _emit(f"{len(results)} checks, {len(failed)} failed: " + ", ".join(r.name for r in failed))
        else:
            _emit(f"{len(results)} checks, all passed")
    return 0 if not failed else 1


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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cmkostka",
        description="Exact Kostka polynomials, fiber characters, and rank-one matrix pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kostka", help="Kostka polynomial of a label")
    _add_label_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_kostka)

    p = sub.add_parser("character", help="zero-fiber character report")
    _add_label_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_character)

    p = sub.add_parser("tangent", help="fixed-point tangent weights")
    _add_label_flags(p, gamma=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_tangent)

    p = sub.add_parser("schur-p1n", help="Schur expansion of the n-th power of p_1")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--N", type=_positive, help="expand over N-component labels instead")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_schur_p1n)

    p = sub.add_parser("wreath", help="wreath labels with dimensions and the order identity")
    p.add_argument("--N", type=_positive, required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_wreath)

    def add_cm_verify(sp, name):
        q = sp.add_parser(name, help="rank-one check of the normal form built from y, alpha")
        _add_cm_flags(q)
        q.add_argument("--json", action="store_true")
        q.set_defaults(handler=_cmd_cm_verify)

    def add_cm_embed(sp, name):
        q = sp.add_parser(name, help="ideal and subspace basis of the embedded point")
        _add_cm_flags(q)
        q.add_argument("--json", action="store_true")
        q.set_defaults(handler=_cmd_cm_embed)

    add_cm_verify(sub, "cm-verify")
    add_cm_embed(sub, "cm-embed")

    p = sub.add_parser("cm", help="matrix-pair commands (verify, embed)")
    cm_sub = p.add_subparsers(dest="cm_command", required=True)
    add_cm_verify(cm_sub, "verify")
    add_cm_embed(cm_sub, "embed")

    p = sub.add_parser("verify-all", help="run every registered invariant check")
    p.add_argument("--n", type=_positive, help="cap on partition sizes and matrix ranks")
    p.add_argument("--N", type=_positive, help="cap on component counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-size", dest="max_size", type=_positive, help="cap on tableau enumeration size"
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--inject-hook-corruption", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
