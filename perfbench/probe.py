"""Direct timing of field operations at the conductors the workloads use.

Add, multiply and invert are timed on seeded random elements with small
coordinates (numerators in [-4, 4], denominators 1..3), the size of the
catalog's coefficients.  Each figure is the median over repeats of the mean
time per operation in microseconds.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

CONDUCTORS = (3, 4, 8, 24, 28)
OPERATIONS = ("add", "mul", "inverse")
REPEATS = 5
# elements per timed loop; inversion at N=28 costs milliseconds per call
SIZES = {"add": 200, "mul": 100, "inverse": 12}


def metric_names():
    return [
        "cyclotomic.%s_us.N%d" % (op, n) for op in OPERATIONS for n in CONDUCTORS
    ]


def _elements(ctx, rng, count):
    out = []
    while len(out) < count:
        e = ctx.from_coords(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ctx.dim)]
        )
        if not e.is_zero():
            out.append(e)
    return out


def _time_per_op(run, count):
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run()
        samples.append((time.perf_counter() - t0) / count * 1e6)
    return statistics.median(samples)


def field_probe(qg, seed):
    """Microseconds per add, mul and inverse at each conductor."""
    rng = random.Random("field-probe-%d" % seed)
    values = {}
    for n in CONDUCTORS:
        ctx = qg.FieldContext(n)
        xs = _elements(ctx, rng, max(SIZES.values()) + 1)
        add_pairs = list(zip(xs, xs[1:]))[: SIZES["add"]]
        mul_pairs = add_pairs[: SIZES["mul"]]
        inv_args = xs[: SIZES["inverse"]]

        def add():
            for a, b in add_pairs:
                a + b

        def mul():
            for a, b in mul_pairs:
                a * b

        def inverse():
            for a in inv_args:
                a.inverse()

        for op, run in (("add", add), ("mul", mul), ("inverse", inverse)):
            values["cyclotomic.%s_us.N%d" % (op, n)] = _time_per_op(run, SIZES[op])
    return values
