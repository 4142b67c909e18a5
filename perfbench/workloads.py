"""The three workloads: their seeded inputs, timed op loops and correctness gates.

Each workload runs once per interpreter as a closed loop (one caller, no
threads); no label or point repeats inside one interpreter, so process-level
caches in the package cannot turn repeated work into a fake gain.  Package
functions are looked up on the ``cmkostka`` namespace at call time, so a
traced rep sees the wrapped versions.

Gates run after the timed loop and say whether an op's output is right; an
op that raised reaches its gate as None and fails.
"""

import contextlib
import io
import random
import re
import time
from fractions import Fraction

import cmkostka
from cmkostka import cli, verify

clock = time.perf_counter


# -- verify-all: the CLI battery at its defaults, one op per check


def verify_inputs(seed):
    return ["verify-all", "--seed", str(seed)], {"checks": len(verify.check_names())}


@contextlib.contextmanager
def check_timer(latencies, sampler, tracer=None):
    """Time each registered check as one op, appending (name, start, end) to
    latencies, by swapping in timed registry entries.  The speed sampler
    samples right before and right after each check.

    With a tracer, each check is also a span named verify.<check-name>,
    and each sample one named bench.speed, so that the samples do not count
    in the self time of cli.main.  The original registry is always restored.
    """
    original = verify._REGISTRY
    sample = tracer.wrap("bench.speed", sampler.sample) if tracer is not None else sampler.sample

    def timed(name, fn):
        if tracer is not None:
            fn = tracer.wrap(f"verify.{name}", fn)

        def run(lim):
            sample()
            start = clock()
            try:
                return fn(lim)
            finally:
                latencies.append((name, start, clock()))
                sample()

        return run

    verify._REGISTRY = tuple((name, timed(name, fn)) for name, fn in original)
    try:
        yield
    finally:
        verify._REGISTRY = original


def verify_run(argv, sampler, tracer=None):
    """Run the battery; returns ((start, end) of the cli.main call,
    [(check, start, end)], (exit, stdout))."""
    latencies = []
    out = io.StringIO()
    run_main = tracer.wrap("bench.op", cli.main) if tracer is not None else cli.main
    start = clock()
    with check_timer(latencies, sampler, tracer), contextlib.redirect_stdout(out):
        try:
            code = run_main(list(argv))
        except Exception as err:  # a crash inside the battery fails the unfinished checks
            code = repr(err)
    return (start, clock()), latencies, (code, out.getvalue())


_PASS = re.compile(r"^PASS (\S+) \((\d+) items\)$")


def verify_items(stdout):
    """Check name -> item count for every PASS line."""
    return {m.group(1): int(m.group(2)) for m in map(_PASS.match, stdout.splitlines()) if m}


def verify_gate(check_names, result):
    """One bool per check: whether it printed a PASS line.  Every check fails
    when the exit status disagrees with the lines (exit 0 exactly when all
    pass) or a check passes twice."""
    code, stdout = result
    passed = verify_items(stdout)
    verdicts = [name in passed for name in check_names]
    consistent = (code == 0) == all(verdicts) and stdout.count("PASS ") == len(passed)
    return verdicts if consistent else [False] * len(check_names)


# -- character-table: one character(label) per op


def character_inputs(seed):
    labels = [lam for n in range(15) for lam in cmkostka.enumerate_partitions(n)]
    labels += [gp for n in range(7) for gp in cmkostka.enumerate_gamma_partitions(3, n)]
    random.Random(f"character-table:{seed}").shuffle(labels)
    return labels, {"partitions_n_max": 14, "wreath_N": 3, "wreath_n_max": 6, "labels": len(labels)}


def character_op(label):
    return cmkostka.character(label)


def character_ok(label, report):
    if report is None or report.label != label:
        return False
    if isinstance(label, cmkostka.Partition):
        dim = cmkostka.syt_count(label)
    else:
        dim = cmkostka.gamma_dimension(label)
    k, ch = report.kostka, report.character
    return (
        report.dimension == dim
        and k.coeffs.get(0) == 1
        and min(k.coeffs.values()) > 0
        and cmkostka.evaluate_at_one(k) == dim
        and ch.is_palindromic()
        and cmkostka.evaluate_at_one(ch) == dim * dim
        and ch == k * cmkostka.substitute_inverse(k)
    )


# -- cm-pairs: one seeded regular point per op

# Sizes drawn once each per rep: eleven points at every n in 2..12, then a
# few large ones.  Small points set the median latency and the large ones
# most of the wall time.
CM_SIZES = tuple(n for n in range(2, 13) for _ in range(11)) + (16, 18, 20)


def _point(rng, n):
    # The value distribution of verify._random_points with its default cap of
    # 12, widened to n for the large points.
    cap = max(12, n)
    den = rng.choice((1, 2, 3))
    y = [Fraction(v, den) for v in rng.sample(range(-4 * cap - 4, 4 * cap + 5), n)]
    alpha = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)]
    return cmkostka.CMPointRegular(y, alpha)


def cm_inputs(seed):
    rng = random.Random(f"cm-pairs:{seed}")
    sizes = list(CM_SIZES)
    rng.shuffle(sizes)
    points, seen = [], set()
    for n in sizes:
        point = _point(rng, n)
        while (point.y, point.alpha) in seen:
            point = _point(rng, n)
        seen.add((point.y, point.alpha))
        points.append(point)
    return points, {"sizes": "11 points each at n=2..12, one each at n=16,18,20", "points": len(points)}


def cm_op(point):
    x, y = cmkostka.wilson_representative(point)
    ok, m, witness = cmkostka.verify_cm(x, y)
    char_x, char_y = cmkostka.projections(x, y)
    embedded = cmkostka.wilson_embed(point)
    lines = [cmkostka.component_line(embedded, v) for v in point.y]
    return ok, m, witness, char_x, char_y, lines


def cm_ok(point, result):
    if result is None:
        return False
    ok, m, witness, char_x, char_y, lines = result
    if not ok or witness is None:
        return False
    column, row = witness
    n = point.n
    factors = all(column[i] * row[j] == m.entries[i][j] for i in range(n) for j in range(n))
    return (
        factors
        and char_y == cmkostka.poly_from_roots(point.y)
        and len(char_x) == n + 1
        and char_x[n] == 1
        and char_x[n - 1] == -sum(point.alpha)
        and lines == [(Fraction(1), -a) for a in point.alpha]
    )


def op_loop(op, inputs, tracer=None):
    """Call op on each input in order; returns (wall, [(start, end)], outputs)."""
    if tracer is not None:
        op = tracer.wrap("bench.op", op)
    intervals, outputs = [], []
    start = clock()
    for item in inputs:
        t = clock()
        try:
            out = op(item)
        except Exception:  # a raising op is a failed op; the run continues
            out = None
        intervals.append((t, clock()))
        outputs.append(out)
    return clock() - start, intervals, outputs
