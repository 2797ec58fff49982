"""Summary statistics shared by run.py, spread.py and their tests."""

import math
import statistics
from fractions import Fraction

# Percentiles the benchmark may report as a tail, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def _rank(p, count):
    """1-based nearest rank of percentile p among `count` samples, computed
    exactly so that 99.9% of 10000 is rank 9990."""
    return max(1, min(count, math.ceil(Fraction(str(p)) * count / 100)))


def percentile(values, p):
    """Nearest-rank percentile of `values`, p in (0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    return sorted(values)[_rank(p, len(values)) - 1]


def tail_percentile(count):
    """The highest ladder percentile with at least MIN_BEYOND samples
    beyond it in a sample of `count`, or None when none has."""
    best = None
    for p in TAIL_LADDER:
        if count > 0 and count - _rank(p, count) >= MIN_BEYOND:
            best = p
    return best


def summarize(values):
    """Median, quartiles and relative spread of repeated measurements,
    with the quartiles statistics.quantiles(n=4) gives."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


# Operations per latency slice: the p99 of 1000 has MIN_BEYOND beyond it.
OP_SLICE = 1000


def sliced_percentiles(latencies, size=OP_SLICE):
    """Splits latencies, in operation order, into consecutive slices of
    `size` (dropping a partial last one) and returns each slice's
    (p50, p90, p99). The median of these per-slice values across a run is
    robust to a minority of slices that a busy machine slowed down."""
    return [tuple(percentile(latencies[i:i + size], p) for p in (50, 90, 99))
            for i in range(0, len(latencies) - size + 1, size)]


def sliced_rates(completions, size=OP_SLICE):
    """Throughput over slices of `size` consecutive completions, given as
    (time, amount) pairs: each slice's amount over the time since the
    previous slice's last completion (since 0 for the first). Slices by
    count, not by time, so a slowed stretch of a run weighs no more than
    a fast one."""
    ordered = sorted(completions)
    rates, start = [], 0.0
    for i in range(size, len(ordered) + 1, size):
        end = ordered[i - 1][0]
        if end > start:
            rates.append(sum(amount for _, amount in ordered[i - size:i])
                         / (end - start))
        start = end
    return rates


def summarize_pass(load):
    """Per-request rows of one load phase (perfbench_client's output) cut
    into latency slices of OP_SLICE requests, in send order, and throughput
    slices of OP_SLICE acks. Latency runs from the send to the ack."""
    ingest = sorted(load.pop("ingest_rows"))
    op_ms = [(done - sent) * 1e3 for sent, done, _ in ingest]
    return {
        "op_ms": op_ms,
        "slices": sliced_percentiles(op_ms),
        "rates": sliced_rates([(done, acked) for _, done, acked in ingest]),
    }


def pass_metrics(slices, rates):
    """Medians over every latency and throughput slice of a run, so a
    minority of slices slowed by other tenants of the machine does not
    move a metric."""
    def median(values):
        values = list(values)
        return summarize(values)["median"] if values else 0.0
    return {
        "receipts_per_s": median(rates),
        "op_p50_ms": median(p50 for p50, _, _ in slices),
        "op_p90_ms": median(p90 for _, p90, _ in slices),
    }
