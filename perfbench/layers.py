"""Which public functions the traced run wraps, and the per-layer metrics.

A metric is named ``<module>.<function>.<quantity>``:

- ``calls_per_op``, ``self_ms_per_op``: medians over the operations of the
  traced steady phase that call the function (the ``witt-laws`` triples over
  F_4 never touch ``RingElem``, nor those over Z/p^N ``FqElem``);
- ``setup_calls``, ``setup_self_s``: totals over the set-up phase;
- ``hit_ratio``: hits / (hits + misses) of the function's ``functools``
  cache over the whole traced run, with ``cache_lookups`` = hits + misses
  as its base (the ratio reads 0 when the base is 0).

Every metric is reported on every workload; one whose function the
workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from tracer import Target

PER_OP = ("calls_per_op", "self_ms_per_op")
SETUP = ("setup_calls", "setup_self_s")
ALL = PER_OP + SETUP
CACHE = ("hit_ratio", "cache_lookups")

# (module, function, quantities); element operators and the polynomial
# evaluator run millions of times, so they are timed without span records
LAYERS = [
    ("gausstrace", "trace_formula_check", ()),
    ("gausstrace", "kernel_H", ("self_ms_per_op",)),
    ("gausstrace", "alpha_trace", ("self_ms_per_op",)),
    ("gausstrace", "gauss_brute", ("self_ms_per_op",)),
    ("characters", "theta_one_series", ("setup_self_s",) + CACHE),
    ("characters", "mu_ppow_table", PER_OP),
    ("characters", "CharacterSystem.character_table", PER_OP),
    ("characters", "CharacterSystem.chi_value", PER_OP),
    ("characters", "RootOfUnityTable.snap", PER_OP),
    ("series", "pulita_theta_ms", ("setup_self_s",)),
    ("series", "artin_hasse_E", ("setup_self_s",)),
    ("series", "TruncSeries2.outer", PER_OP),
    ("series", "TruncSeries2.mul_sparse", PER_OP),
    ("series", "Series1.compose_scale", PER_OP),
    ("series", "Series1.eval_full", PER_OP),
    ("series", "certify_tail", PER_OP),
    ("wittvec", "witt_add", ALL),
    ("wittvec", "witt_mul", ALL),
    ("wittvec", "witt_neg", ALL),
    ("upoly", "structural_polys", SETUP),
    ("upoly", "eval_plan_at", ALL),
    ("rings", "RingElem.__mul__", ALL),
    ("rings", "RingElem.__add__", ALL),
    ("rings", "TowerRing.teichmuller", ALL),
    ("rings", "make_ring", ALL + CACHE),
    ("fields", "FqElem.__mul__", PER_OP),
]

UNSPANNED = {
    "upoly.eval_plan_at",
    "rings.RingElem.__mul__",
    "rings.RingElem.__add__",
    "fields.FqElem.__mul__",
}

TARGETS = [
    Target(module, qualname, spans=f"{module}.{qualname}" not in UNSPANNED)
    for module, qualname, _ in LAYERS
]

# whole passes in the traced steady phase: a fixed amount of work, so that
# every count repeats exactly between two traced runs of one seed
TRACED_PASSES = {"gauss-q3": 1, "gauss-q4": 1, "witt-laws": 40}

UNITS = {
    "calls_per_op": "count",
    "self_ms_per_op": "ms",
    "setup_calls": "count",
    "setup_self_s": "s",
    "hit_ratio": "ratio",
    "cache_lookups": "count",
}


def metric_names():
    """Every per-layer metric, in table order, with its unit."""
    out = [
        (f"{module}.{qualname}.{quantity}", UNITS[quantity])
        for module, qualname, quantities in LAYERS
        for quantity in quantities
    ]
    return out + [("trace_overhead", "ratio")]


def _median_over_callers(values):
    values = [v for v in values if v]
    return statistics.median(values) if values else 0


def _value(tracer, name, quantity, n_ops):
    if quantity == "calls_per_op":
        return _median_over_callers(tracer.calls(k, name) for k in range(n_ops))
    if quantity == "self_ms_per_op":
        return 1000 * _median_over_callers(tracer.self_seconds(k, name) for k in range(n_ops))
    if quantity == "setup_calls":
        return tracer.calls("setup", name)
    if quantity == "setup_self_s":
        return tracer.self_seconds("setup", name)
    info = tracer.originals[name].cache_info()
    lookups = info.hits + info.misses
    if quantity == "cache_lookups":
        return lookups
    return info.hits / lookups if lookups else 0


def layer_metrics(tracer, n_ops):
    """Every per-layer metric but ``trace_overhead``, as name -> (value, unit);
    operations are the buckets 0 .. n_ops - 1."""
    return {
        f"{module}.{qualname}.{quantity}": (
            _value(tracer, f"{module}.{qualname}", quantity, n_ops),
            UNITS[quantity],
        )
        for module, qualname, quantities in LAYERS
        for quantity in quantities
    }
