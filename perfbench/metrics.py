"""Metric names, units and the order statistics the benchmark reports."""

from tracer import TARGETS

END_TO_END = (
    # name, unit, better
    ("wall_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

# The 29 verify-all checks in registry order; each gets a verify.<name>.s
# metric.  The gate reads verify.check_names(); a test keeps the two equal.
CHECK_NAMES = (
    "hook-count-and-sum",
    "hook-conjugation-invariance",
    "tableau-count-oracle",
    "tableau-square-sum",
    "wreath-order-sum",
    "division-round-trip",
    "inverse-substitution",
    "evaluation-multiplicative",
    "tangent-weights-negated-hooks",
    "tangent-weights-sign-split",
    "kostka-normalization",
    "kostka-dimension-at-one",
    "kostka-conjugation-invariance",
    "kostka-major-index-oracle",
    "wreath-kostka-factorization",
    "character-palindrome-square",
    "completion-series-consistency",
    "multiplicity-hook-oracle",
    "multiplicity-square-sum",
    "wreath-multiplicity-square-sum",
    "wreath-slot-symmetry",
    "wreath-dimension-chain",
    "rank-one-random-points",
    "scaling-preserves-rank-one",
    "involution-preserves-rank-one",
    "eigenvalue-polynomial-match",
    "profile-round-trip",
    "embedding-component-lines",
    "embedding-block-factorization",
)


def per_layer():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for _, _, span in TARGETS:
        out.append((f"{span}.calls", "count"))
        out.append((f"{span}.self_s", "s"))
        if span == "characters.completion_character_check":
            out.append(("characters.hook_repeat_share", "share"))
        if span == "cm.schubert_profile":
            out.append(("cm.charpoly.order_sum", "count"))
    out.extend((f"verify.{name}.s", "s") for name in CHECK_NAMES)
    out.append(("trace.overhead_share", "share"))
    return tuple(out)


PER_LAYER = per_layer()


def quantile(values, q):
    """The q-th quantile (0 < q < 1) by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
