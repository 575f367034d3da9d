"""wittlab benchmark: one workload in one single-threaded process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gauss-q3 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload witt-laws --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --short        # a few checked operations per workload

``wittlab`` is imported from the checkout's own ``src/``.  A run sets up,
then runs whole passes of checked operations until ``--seconds`` have gone
by, and prints one JSON object as its last line of output: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
same object and, for a traced run, the spans are written under
``perfbench/out/``.

Set-up and operations are timed in CPU time of the process and of its
waited-for children (see ``cpu_clock``), not in wall time, and every time
is given in seconds of the reference box (see ``HostSpeed``).
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import layers
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_wittlab():
    src = ROOT / "src"
    if not (src / "wittlab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no wittlab sources under {src}")
    sys.path.insert(0, str(src))
    import wittlab

    if Path(wittlab.__file__).resolve().parent != src / "wittlab":
        raise SystemExit(f"benchmark: imported wittlab from {wittlab.__file__}, not {src}")
    return wittlab


def reset_caches(wittlab):
    """Empty every module-level cache of the package, so a repeated set-up
    starts as cold as the first one."""
    prefix = wittlab.__name__ + "."
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == wittlab.__name__ or name.startswith(prefix)):
            continue
        for attr, value in vars(mod).items():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif isinstance(value, dict) and "cache" in attr.lower():
                value.clear()


def cpu_clock():
    """CPU seconds used so far by this process and its waited-for children.

    The benchmark is single-threaded and CPU-bound, so on an idle machine
    this advances with wall time; on a shared host it leaves out the time
    the virtual CPU is taken away, which would otherwise set the figures.
    Children are counted so that work moved into worker processes still
    shows.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


_PROBE_MOD = 3**40
_PROBE_ROWS = tuple(
    tuple(7 ** (5 * u + i + 1) % _PROBE_MOD for i in range(6)) for u in range(5)
)


def _probe_work():
    """A fixed piece of pure-Python integer arithmetic, shaped like the ring
    products that dominate the workloads (schoolbook products of length-6
    tuples, folded back with a reduction table, mod 3^40) but written here,
    so that no change to ``wittlab`` changes it."""
    a = tuple(range(11, 17))
    for _ in range(150):
        prod = [0] * 11
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                prod[i + j] += x * y
        for u in range(4, -1, -1):
            c = prod[6 + u]
            row = _PROBE_ROWS[u]
            for i in range(6):
                prod[i] += c * row[i]
        a = tuple(c % _PROBE_MOD for c in prod[:6])
    return a


class HostSpeed:
    """How fast the host runs pure Python during a run, from a fixed probe
    timed between the operations and after each set-up, once for every
    ``EVERY_S`` of CPU time since the last probe.

    The reference box runs the same work between one and 1.7 times slower
    from one quarter of an hour to the next, in CPU time too (other guests
    share its cores and caches), so every time is multiplied by ``scale()``:
    the probe's CPU time on the reference box over its mean in this run.
    The probe does not use ``wittlab``, so a change to the program moves the
    times and leaves the scale alone.
    """

    # the probe's CPU time that times are scaled to: about its mean on the
    # reference box, where the mean of a run read 2.5-3.6 ms
    REFERENCE_S = 0.003
    EVERY_S = 0.1
    # most probes in a row: the speed drifts within a long operation, and a
    # row measures it only at the operation's end
    MOST_IN_A_ROW = 10

    def __init__(self):
        self.samples = []
        self.last = cpu_clock()

    def sample(self):
        start = cpu_clock()
        _probe_work()
        self.last = cpu_clock()
        self.samples.append(self.last - start)

    def sample_if_due(self):
        due = int((cpu_clock() - self.last) / self.EVERY_S)
        for _ in range(min(due, self.MOST_IN_A_ROW)):
            self.sample()

    def scale(self):
        """Reference-box seconds per CPU second measured in this run."""
        return self.REFERENCE_S / statistics.fmean(self.samples)


def run_ops(workload, state, ops, tracer=None, speed=None):
    """Run ``ops`` in order, then check them; between operations, sample
    ``speed`` if one is given.

    Returns (CPU seconds of each operation, operations with a wrong output,
    attempted, failed).  An operation that raises or fails a check counts as
    failed; the run goes on.
    """
    latencies = []
    done = {}
    raised = {}
    for index, op in enumerate(ops):
        if speed is not None:
            speed.sample_if_due()
        if tracer is not None:
            tracer.set_bucket(index)
        start = cpu_clock()
        try:
            done[index] = workload.run_op(state, op)
        except Exception as exc:  # an operation that raises is a failed one
            raised[index] = [f"raised {type(exc).__name__}: {exc}"]
        latencies.append(cpu_clock() - start)
    if tracer is not None:
        tracer.set_bucket("check")
    problems = workload.check(state, ops, done)
    wrong = len(problems)
    problems.update(raised)
    for index, found in sorted(problems.items())[:5]:
        print(f"FAILED {ops[index]!r}: {'; '.join(found)}", file=sys.stderr)
    return latencies, wrong, len(ops), len(problems)


def timed_setups(wittlab, workload, speed):
    seconds = []
    state = None
    for k in range(workload.setup_repeats):
        if k:
            state = None
            reset_caches(wittlab)
        start = cpu_clock()
        state = workload.setup()
        seconds.append(cpu_clock() - start)
        speed.sample_if_due()
    return state, seconds


def percentile(values, fraction):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


def measure(wittlab, workload, seed, seconds):
    speed = HostSpeed()
    state, setups = timed_setups(wittlab, workload, speed)
    rng = random.Random(seed)
    latencies, attempted, failed, wrong = [], 0, 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        ops = workload.pass_ops(state, rng)
        lat, bad, n, nfail = run_ops(workload, state, ops, speed=speed)
        latencies += lat
        attempted += n
        failed += nfail
        wrong += bad
    speed.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = speed.scale()
    # whole passes, each the same mix of operations, over their CPU time: a
    # mean, like the probe's, so that both see the same share of slow time
    ops_per_s = (attempted - failed) / sum(latencies)
    metrics = {
        "setup_s": (scale * statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s / scale, "op/s"),
        "op_ms_p90": (1000 * scale * percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(
        f"host speed: {len(speed.samples)} probes, scale {scale:.4f}; as measured: "
        f"setup_s {statistics.median(setups):.4g}, "
        f"ops_per_s {ops_per_s:.4g}, "
        f"op_ms_p90 {1000 * percentile(latencies, 0.9):.4g}",
        file=sys.stderr,
    )
    return wrong == 0, attempted, failed, metrics


def measure_traced(wittlab, workload, seed):
    tracer = Tracer(wittlab.__name__, layers.TARGETS)
    tracer.install()
    try:
        state = workload.setup()
    finally:
        tracer.uninstall()
    rng = random.Random(seed)
    ops = []
    for _ in range(layers.TRACED_PASSES[workload.name]):
        ops += workload.pass_ops(state, rng)
    # the same operations untraced, then traced: the ratio is the overhead
    plain, wrong_a, attempted_a, failed_a = run_ops(workload, state, ops)
    tracer.install()
    try:
        traced, wrong_b, attempted_b, failed_b = run_ops(workload, state, ops, tracer)
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(tracer, len(ops))
    metrics["trace_overhead"] = (sum(traced) / sum(plain), "ratio")
    return (
        wrong_a + wrong_b == 0,
        attempted_a + attempted_b,
        failed_a + failed_b,
        metrics,
        tracer,
    )


def result_line(correct, attempted, failed, metrics):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def run_short(workloads):
    """One closed set of operations per workload with every check."""
    summary = {}
    for name, make in workloads.items():
        workload = make()
        state = workload.setup()
        ops = workload.short_ops(state)
        _, wrong, attempted, failed = run_ops(workload, state, ops)
        summary[name] = {"correct": wrong == 0, "attempted": attempted, "failed": failed}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["gauss-q3", "gauss-q4", "witt-laws"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--short",
        action="store_true",
        help="run a few checked operations of --workload (default: of every workload)",
    )
    args = parser.parse_args(argv)
    if not args.short and args.workload is None:
        parser.error("--workload is required unless --short is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    wittlab = _import_wittlab()
    from workloads import WORKLOADS

    if args.short:
        names = [args.workload] if args.workload else sorted(WORKLOADS)
        summary = run_short({name: WORKLOADS[name] for name in names})
        print(json.dumps(summary, sort_keys=True))
        ok = all(s["correct"] and not s["failed"] for s in summary.values())
        return 0 if ok else 1

    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        correct, attempted, failed, metrics, tracer = measure_traced(
            wittlab, workload, args.seed
        )
        tracer.write(stem.with_suffix(".spans.jsonl"))
    else:
        correct, attempted, failed, metrics = measure(
            wittlab, workload, args.seed, args.seconds
        )
    line = json.dumps(result_line(correct, attempted, failed, metrics))
    stem.with_suffix(".result.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
