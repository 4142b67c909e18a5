"""cmkostka benchmark: run one workload for a number of seconds and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each rep is a fresh interpreter
(perfbench/rep.py) that runs the workload's op list once, serially, on
inputs made from --seed; every rep of a run gets the same inputs.  Reps run
for at most S seconds.

Every reported time is in seconds at a reference machine speed (see
perfbench/speed.py): the machine this was built on is shared and its speed
changes by up to 1.8x for seconds to minutes at a time.  Each op's latency is
the median over reps, and the latency quantiles are taken over those
medians.  wall_s is the sum of those medians for the benchmark's own op
loops; for verify-all, whose checks run inside one cli.main call, it is the
median over reps of that call's wall.  setup_s and peak_rss_mib are medians
over reps.  The unscaled times stay in the result file.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates an untraced
and a traced rep on the same inputs and reports the per-layer metrics, with
the traced/untraced wall ratio as trace.overhead_share.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Lines before it give provenance and each metric with its
unit.  The full result, and the spans of traced reps, go to perfbench/out/.
Exit status is 0 when every rep ran (failed ops are reported, not fatal),
1 when a rep could not run, 2 on a usage error or a missing program.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER, quantile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("verify-all", "character-table", "cm-pairs")
TIME_LIMIT_S = 170  # the whole run, reps included, ends within this


class RepFailed(RuntimeError):
    pass


def run_rep(workload, seed, rep, traced, timeout):
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", workload, "--seed", str(seed), "--rep", str(rep),
        "--trace", str(int(traced)), "--spawned-at", repr(spawned_at),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"rep {rep} of {workload} ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RepFailed(f"rep {rep} of {workload} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RepFailed(f"rep {rep} of {workload} printed no result")
    return json.loads(lines[-1])


def run_reps(workload, seed, seconds, traced):
    """Rounds of reps (one untraced rep, or an untraced/traced pair) for at
    most `seconds`: a round starts only if a round of average length still
    fits.  The first round always runs."""
    start = time.monotonic()
    modes = (False, True) if traced else (False,)
    reps, rounds = [], 0
    while True:
        for mode in modes:
            remaining = TIME_LIMIT_S - (time.monotonic() - start)
            reps.append(run_rep(workload, seed, rounds, mode, remaining))
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds > min(seconds, TIME_LIMIT_S):
            return reps


def item_mismatches(reps):
    """Verify-all checks whose item count in a rep differs from the first
    rep's; every rep of a run has the same seed."""
    first = reps[0]["items"]
    return sum(
        r["items"].get(name) != first.get(name)
        for r in reps[1:]
        for name in first.keys() | r["items"].keys()
    )


def median_per_op(reps):
    """Each op's median latency over reps, at reference speed; every rep runs
    the same op list."""
    return [statistics.median(op) for op in zip(*(r["scaled_latencies_s"] for r in reps))]


def end_to_end(reps, whole_call):
    """The end-to-end metrics; whole_call takes wall_s from each rep's
    scaled_wall_s instead of from the per-op medians."""
    ops = median_per_op(reps)
    wall = statistics.median(r["scaled_wall_s"] for r in reps) if whole_call else sum(ops)
    return {
        "wall_s": wall,
        "ops_per_s": len(ops) / wall,
        "op_p50_ms": quantile(ops, 0.5) * 1e3,
        "op_p90_ms": quantile(ops, 0.9) * 1e3,
        "setup_s": statistics.median(r["scaled_setup_s"] for r in reps),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
    }


def per_layer(untraced, traced):
    def med(values):
        return statistics.median(values) if values else 0.0

    out = {}
    for name, _ in PER_LAYER:
        if name.startswith("verify."):
            check = name[len("verify."):-len(".s")]
            out[name] = med([r["check_s"][check] for r in untraced if check in r.get("check_s", {})])
        elif name.endswith(".calls"):
            out[name] = med([r["layers"].get(name[:-len(".calls")], (0, 0.0))[0] for r in traced])
        elif name.endswith(".self_s"):
            out[name] = med([r["layers"].get(name[:-len(".self_s")], (0, 0.0))[1] * r["speed"] for r in traced])
        elif name == "trace.overhead_share":
            pairs = zip(untraced, traced)
            out[name] = med([t["scaled_wall_s"] / u["scaled_wall_s"] - 1 for u, t in pairs])
        else:
            out[name] = med([r["counters"][name] for r in traced])
    return out


def git_sha():
    """HEAD of the checkout, or None when it is not a git repository; git
    does not look above the checkout for one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "cmkostka")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(args, reps):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reps": len(reps),
        "params": reps[0]["params"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "cmkostka", "__init__.py")):
        print(f"error: no cmkostka package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    try:
        reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
    except RepFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.workload == "verify-all":
        failed += item_mismatches(reps)

    if args.trace:
        metrics = per_layer(untraced, traced)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(untraced, whole_call=args.workload == "verify-all")
        units = {name: unit for name, unit, _ in END_TO_END}
    prov = provenance(args, reps)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"provenance": prov, "result": result, "reps": reps}, fh)

    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"{args.workload} fail_share {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(f"{args.workload} unscaled rep wall median {statistics.median(r['wall_s'] for r in untraced):.4g} s,"
          f" machine speed median {statistics.median(r['speed'] for r in reps):.3g} of reference, {len(reps)} reps")
    if traced:
        acc = [r["accounting"] for r in traced]
        print(f"{args.workload} traced wall {statistics.median(r['wall_s'] for r in traced):.4g} s ="
              f" span self times {statistics.median(a['spans_self_s'] for a in acc):.4g} s"
              f" + benchmark loop {statistics.median(a['loop_s'] for a in acc):.4g} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
