"""netfab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fw-bulk --seed 1 --seconds 20 --trace 0

With `--trace 0` the run reports the end-to-end metrics: the median time of
the workload's timed section (`run_s`), the median set-up time (`setup_s`),
both scaled by the host's speed at the time (see `timed`), the process's
peak resident memory (`peak_rss_mb`) and the share of checked operations that
succeeded (`ok_frac`). With `--trace 1` it runs untraced for half the time,
then wraps the layer functions (see `layers.py`) and reports per-layer calls,
self times, rates, state sizes and drops, in plain wall-clock time. The
traced run must reproduce the untraced model digest. NOTES.md says why each
workload exists and what each metric should move.

The last line of standard output is the result object; the line before it
records the model digest and the simulated outcomes, which are not gated.
Exit code 1 means the benchmark itself failed (non-determinism, a traced run
that changed the model, self times that do not add up); 2 means netfab could
not be imported.
"""
from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import signal
import statistics
import sys
import time

try:
    from layers import (DROP_REASONS, FIREWALL_DROP_REASONS, L3_DROP_REASONS,
                        LayerTrace)
    from workloads import OK, WORKLOADS, WRONG
except ImportError as exc:
    print(f"error: {exc}", file=sys.stderr)
    raise SystemExit(2)

SETUP_MIN_REPS, SETUP_BUDGET_S = 5, 1.5
SELF_SUM_TOLERANCE = 0.05
# The host's speed drifts by tens of percent within minutes, so timings are
# scaled by the speed of a probe loop timed throughout the timed section: a
# time reads as wall seconds on a host that runs the probe in PROBE_NOMINAL_S.
PROBE_ITERATIONS = 2_000
PROBE_NOMINAL_S = 0.0033
SAMPLE_INTERVAL_S = 0.1

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "frac"}


def _per_layer_names() -> dict[str, str]:
    """Per-layer metric name -> unit, in BENCHMARK.json's order."""
    names = {}

    def called(prefix, *extra):
        names[f"{prefix}.calls"] = "count"
        names[f"{prefix}.self_s"] = "s"
        for name in extra:
            names[f"{prefix}.{name}"] = "1/s"

    names["engine.schedule.calls"] = "count"
    names["engine.events_per_s"] = "1/s"
    called("engine.send")
    names["engine.run_until.self_s"] = "s"
    for kind in ("switch", "l3", "firewall", "balancer", "host"):
        called(f"engine.handler.{kind}")
    names["engine.link.peak_queue"] = "frames"
    for reason in DROP_REASONS + ("other",):
        names[f"engine.drops.{reason}"] = "count"
    names["engine.trace_overhead_frac"] = "frac"
    called("l2.ingress", "ops_per_s")
    names["l2.ingress.fanout"] = "frames/frame"
    names["l2.flood_share"] = "frac"
    called("l2.lag_select", "ops_per_s")
    called("l3.forward", "ops_per_s")
    called("l3.route_lookup")
    for reason in L3_DROP_REASONS:
        names[f"l3.drops.{reason}"] = "count"
    names["l3.conn.entries"] = "count"
    called("firewall.masquerade_out", "ops_per_s")
    called("firewall.masquerade_in")
    names["firewall.nat.hit_share"] = "frac"
    names["firewall.nat.entries"] = "count"
    called("firewall.shaper")
    names["firewall.shaper.peak_queue"] = "frames"
    for reason in FIREWALL_DROP_REASONS:
        names[f"firewall.drops.{reason}"] = "count"
    called("resilience.dispatch")
    names["resilience.dispatch.pinned_share"] = "frac"
    names["resilience.probe_tick.calls"] = "count"
    names["resilience.affinity.entries"] = "count"
    names["resilience.unavailable"] = "count"
    for fn in ("make_frame", "push_tag", "pop_tag", "flow_key"):
        called(f"packet.{fn}")
    for fn in ("parse", "validate", "build_engine"):
        names[f"scenario.{fn}.self_s"] = "s"
    called("verify.affected_vlans")
    names["verify.status.self_s"] = "s"
    names["verify.verify.self_s"] = "s"
    called("fabric.broadcast_delivery")
    names["failed_frac"] = "frac"
    return names


PER_LAYER = _per_layer_names()


class BenchError(Exception):
    """The benchmark could not produce a trustworthy measurement."""


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _ProbeItem:
    __slots__ = ("key", "seq", "ref")

    def __init__(self, key, seq, ref):
        self.key, self.seq, self.ref = key, seq, ref


def probe() -> float:
    """Seconds this host takes, right now, for a fixed pure-Python loop that
    allocates small objects and works a dict and a heap, as the simulator
    does. It tracks the host's speed better than plain arithmetic."""
    t0 = time.perf_counter()
    heap, index = [], {}
    for i in range(PROBE_ITERATIONS):
        item = _ProbeItem((i & 63, "k"), i, None)
        index[item.key] = item
        heapq.heappush(heap, (i * 7919 % 1000, i, item))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the probe every SAMPLE_INTERVAL_S, from a SIGALRM handler,
    while a timed section runs, so the host's speed is known throughout."""

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, _signum, _frame):
        self.samples.append(probe())


def timed(fn, arg, scale: bool = True):
    """Run fn(arg). Returns (wall seconds, host-scaled seconds, result), both
    without the time the probes took. Without `scale` nothing is probed and
    the two times are equal."""
    if not scale:
        t0 = time.perf_counter()
        result = fn(arg)
        wall = time.perf_counter() - t0
        return wall, wall, result
    before = probe()
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        result = fn(arg)
        wall = time.perf_counter() - t0 - sum(sampler.samples)
    after = probe()
    speed = statistics.fmean([before, after] + sampler.samples)
    return wall, wall * PROBE_NOMINAL_S / speed, result


def measure_setup(workload, texts) -> list[float]:
    """Host-scaled seconds of parse + validate + build_engine, repeated, each
    time from a collected heap as in a fresh `netfab run`."""
    samples = []
    start = time.perf_counter()
    while (len(samples) < SETUP_MIN_REPS
           or time.perf_counter() - start < SETUP_BUDGET_S):
        gc.collect()
        samples.append(timed(workload.setup, texts)[1])
    return samples


def timed_reps(workload, texts, budget_s: float, scale: bool = True):
    """Set up and run the workload, repeating while the budget lasts, at
    least once. Returns, per repetition, the timed section's host-scaled
    seconds and wall seconds, the wall seconds of set-up plus timed section,
    and the check results."""
    scaled_s, run_s, wall_s, results = [], [], [], []
    start = time.perf_counter()
    while not run_s or time.perf_counter() - start < budget_s:
        gc.collect()
        t0 = time.perf_counter()
        prepared = workload.setup(texts)
        setup_wall = time.perf_counter() - t0
        wall, scaled, ran = timed(workload.run, prepared, scale)
        scaled_s.append(scaled)
        run_s.append(wall)
        wall_s.append(setup_wall + wall)
        results.append(workload.check(prepared, ran))
        del prepared, ran
    return scaled_s, run_s, wall_s, results


def _digest_of(results, what: str) -> str:
    digests = {r.digest for r in results}
    if len(digests) != 1:
        raise BenchError(f"{what} repetitions gave different model digests "
                         f"{sorted(digests)}")
    return digests.pop()


def per_layer(trace, reps: int, run_s: float, traced_run_s: float,
              failed_frac: float) -> dict[str, float]:
    values = {}
    for name, (calls, total, self_s) in trace.stats.items():
        values[f"{name}.calls"] = calls / reps
        values[f"{name}.self_s"] = self_s / reps
        values[f"{name}.ops_per_s"] = _ratio(calls, total)
    for name in PER_LAYER:
        values.setdefault(name, 0.0)
    for name, n in trace.engine_state().items():
        values[name] = n / reps
    counts, peaks = trace.counts, trace.peaks
    ingress = trace.stats.get("l2.ingress", [0])[0]
    values.update({
        "engine.events_per_s": _ratio(values["engine.schedule.calls"], run_s),
        "engine.link.peak_queue": peaks["engine.link.peak_queue"],
        "engine.trace_overhead_frac": _ratio(traced_run_s, run_s) - 1,
        "l2.ingress.fanout": _ratio(counts["l2.ingress.out"], ingress),
        "l2.flood_share": _ratio(counts["l2.flood"], ingress),
        "firewall.nat.hit_share": _ratio(
            counts["firewall.nat.hits"],
            trace.stats.get("firewall.masquerade_out", [0])[0]),
        "firewall.shaper.peak_queue": peaks["firewall.shaper.peak_queue"],
        "resilience.dispatch.pinned_share": _ratio(
            counts["resilience.dispatch.pinned"],
            trace.stats.get("resilience.dispatch", [0])[0]),
        "failed_frac": failed_frac,
    })
    return {name: values[name] for name in PER_LAYER}


def bench(workload, seed: int, seconds: float, traced: bool) -> dict:
    texts = workload.texts(seed)
    record = {"workload": workload.name, "seed": seed, "trace": int(traced)}
    if not traced:
        setup_s = measure_setup(workload, texts)
        run_s, wall_s, _, results = timed_reps(workload, texts, seconds)
        record["setup_reps"] = len(setup_s)
    else:
        # unscaled, so that probes neither run inside wrapped calls nor make
        # the two halves differ in anything but the tracing
        run_s, wall_s, _, results = timed_reps(workload, texts, seconds / 2,
                                               scale=False)
        with LayerTrace() as trace:
            traced_run_s, _, traced_wall_s, traced_results = timed_reps(
                workload, texts, seconds / 2, scale=False)
        if trace.missing:
            print(f"warning: not traced: {', '.join(trace.missing)}",
                  file=sys.stderr)
        self_share = _ratio(trace.self_total(), sum(traced_wall_s))
        if abs(self_share - 1) > SELF_SUM_TOLERANCE:
            raise BenchError(f"layer self times cover {self_share:.3f} of the "
                             "traced wall time")
        if (_digest_of(traced_results, "traced")
                != _digest_of(results, "untraced")):
            raise BenchError("the traced run changed the model digest")
        results += traced_results
        record["traced_reps"] = len(traced_run_s)
        record["self_time_share"] = self_share
    record["model_digest"] = _digest_of(results, "untraced")
    record["reps"] = len(run_s)
    record["run_s"] = run_s
    record["run_wall_s"] = wall_s
    record["outcomes"] = results[0].outcomes
    attempted = sum(len(r.checks) for r in results)
    failed_ops = sorted({op for r in results for op, state in r.checks.items()
                         if state != OK})
    failed = sum(state != OK for r in results for state in r.checks.values())
    record["failed_ops"] = failed_ops
    if not traced:
        metrics = {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    else:
        metrics = per_layer(trace, len(traced_run_s), statistics.median(run_s),
                            statistics.median(traced_run_s),
                            failed / attempted)
        units = PER_LAYER
    print(json.dumps(record, sort_keys=True))
    return {"correct": not any(state == WRONG for r in results
                               for state in r.checks.values()),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
