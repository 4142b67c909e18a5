"""One rep: a fresh interpreter that runs one workload once and prints its result.

    python3 perfbench/rep.py --workload NAME --seed N --rep R --trace 0|1 \
        --spawned-at MONOTONIC

Set-up time runs from --spawned-at (the parent's time.monotonic() just
before it started this process) to the end of input generation, so it
covers interpreter start, ``import cmkostka`` and building the inputs.  The
result is one JSON object on stdout.  A traced rep also writes its spans to
perfbench/out/ as gzipped JSON lines.
"""

import argparse
import gzip
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import cmkostka  # noqa: E402  (must come from this checkout's src/)
from cmkostka import verify  # noqa: E402

import workloads  # noqa: E402
from speed import REFERENCE_S, SpeedSampler, reference_times, scaled_latencies, scaled_wall_s  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

WORKLOADS = {
    # name: (inputs(seed) -> (inputs, params), op or None for verify-all, gate(input, output) -> bool)
    "verify-all": (workloads.verify_inputs, None, None),
    "character-table": (workloads.character_inputs, workloads.character_op, workloads.character_ok),
    "cm-pairs": (workloads.cm_inputs, workloads.cm_op, workloads.cm_ok),
}


def hook_key(label):
    parts = label.components if isinstance(label, cmkostka.GammaPartition) else (label,)
    return tuple(sorted(h for part in parts for h in cmkostka.hook_lengths(part)))


def counters(tracer):
    kostka_labels = tracer.first_args["characters.kostka"] + tracer.first_args["characters.kostka_wreath"]
    keys = [hook_key(label) for label in kostka_labels]
    repeats = len(keys) - len(set(keys))
    return {
        "characters.hook_repeat_share": repeats / len(keys) if keys else 0.0,
        "cm.charpoly.order_sum": sum(m.rows for m in tracer.first_args["cm.charpoly"]),
    }


def run(workload, seed, rep, traced, spawned_at):
    make_inputs, op, ok = WORKLOADS[workload]
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
        make_inputs = tracer.wrap("bench.setup", make_inputs)
    try:
        inputs, params = make_inputs(seed)
        setup_s = time.monotonic() - spawned_at
        before = reference_times(7)
        with SpeedSampler() as sampler:
            if op is None:
                call, checks, output = workloads.verify_run(inputs, sampler, tracer)
                wall = call[1] - call[0]
                intervals = [(start, end) for _, start, end in checks]
            else:
                wall, intervals, outputs = workloads.op_loop(op, inputs, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kernel_s = statistics.median(before + [d for _, d in sampler.samples])
    scaled = scaled_latencies(intervals, sampler.samples, kernel_s)
    if op is None:
        # the whole cli.main call: the checks and the work around them
        scaled_wall = scaled_wall_s(*call, sampler.samples, kernel_s)
    else:
        scaled_wall = sum(scaled)

    result = {
        "workload": workload,
        "seed": seed,
        "rep": rep,
        "traced": traced,
        "params": params,
        "setup_s": setup_s,
        "wall_s": wall,
        "latencies_s": [end - start for start, end in intervals],
        "peak_rss_mib": peak_rss_mib,
        # at the reference speed: set-up by the kernel time just after it,
        # each op by the samples around it, the rest by the rep's median
        "scaled_setup_s": setup_s * REFERENCE_S / statistics.median(before),
        "scaled_latencies_s": scaled,
        "scaled_wall_s": scaled_wall,
        "speed": REFERENCE_S / kernel_s,
        "speed_samples": len(sampler.samples),
    }
    if op is None:
        verdicts = workloads.verify_gate(verify.check_names(), output)
        result["items"] = workloads.verify_items(output[1])
        result["check_s"] = {name: t for (name, _, _), t in zip(checks, scaled)}
        if output[0] != 0:
            result["error"] = f"verify-all exit {output[0]!r}"
    else:
        verdicts = [ok(item, out) for item, out in zip(inputs, outputs)]
    result["attempted"] = len(verdicts)
    result["failed"] = verdicts.count(False)

    if tracer is not None:
        stats = self_times(tracer.spans)
        roots = [(name, end - start) for name, start, end, parent in tracer.spans if parent < 0]
        setup_spans = sum(d for name, d in roots if name == "bench.setup")
        loop_spans = sum(d for name, d in roots if name != "bench.setup")
        result["layers"] = {name: list(v) for name, v in stats.items()}
        result["counters"] = counters(tracer)
        # Span self times inside the op loop sum to its root spans' time; the
        # rest of the traced wall is the benchmark's own loop.  Speed samples
        # count in the span they interrupt.
        result["accounting"] = {
            "spans_self_s": sum(s for _, s in stats.values()) - setup_spans,
            "loop_s": wall - loop_spans,
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-rep{rep}.jsonl.gz")
        with gzip.open(path, "wt") as fh:
            for index, (name, start, end, parent) in enumerate(tracer.spans):
                fh.write(json.dumps([index, name, start, end, parent]) + "\n")
        result["spans_file"] = os.path.relpath(path, ROOT)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    if not os.path.realpath(cmkostka.__file__).startswith(os.path.realpath(ROOT) + os.sep):
        sys.exit(f"cmkostka imported from {cmkostka.__file__}, not from this checkout")
    result = run(args.workload, args.seed, args.rep, bool(args.trace), args.spawned_at)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
