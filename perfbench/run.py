"""mfcat benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload brick-stable --seed 1 --seconds 24 --trace 0

Without --workload every workload runs in turn, each in its own process,
and the last line maps each workload to its JSON result.

Run from the root of a source checkout; the library is imported from its
`src/` directory.  Set-up builds the workload's inputs from the seed.  Then
whole passes over the query list repeat, one query at a time: one warm-up
pass, then timed passes until the next would end after --seconds (at
least three).  Every answer is checked; a query that raises, answers
wrongly, returns a missing or invalid certificate, or runs longer than
30 s counts as failed.

The shared host's speed swings by up to 2x over seconds to minutes, so a
fixed stretch of standard-library work (calibrate.py) runs every 15 ms of
CPU time, its own time is left out of every latency, and every latency is
scaled by the host's speed on that work around the query to a fixed
reference speed.  wall_s is the median over the timed passes of a pass's
scaled time; query_p50_ms and query_p90_ms are the median and 90th
percentile of the scaled latencies of every query call in the timed
passes.  setup_s is the median of several scaled set-ups, each in a fresh
process.

--trace 0 prints the end-to-end metrics, --trace 1 follows each untraced
pass with a traced one and prints the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

    python3 perfbench/run.py --self-test

re-runs every workload traced, twice on one seed, and checks that the
exact counters agree; it also checks that the query timeout fires.
See NOTES.md for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array

from calibrate import Speedometer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("brick-stable", "equivariant-isotypic", "witness-certify", "prime-field")
DEFAULT_SEED = 1
QUERY_TIMEOUT = 30.0
SETUP_TIMEOUT = 60.0
SETUP_SAMPLES = 5  # this process's set-up plus four in fresh processes
OVERRUN = 60.0  # past --seconds, remaining queries fail without running
MIN_PASSES = 3  # timed passes, after the warm-up pass
SETUP_SLICES = 40  # calibration slices before and after each set-up
MAX_ERRORS = 5  # failures echoed to standard error per run
TIME_KEYS = (".s", "self_s")  # per-layer metrics that are times


class QueryTimeout(BaseException):
    """Raised by the alarm; a BaseException so library code cannot swallow it."""


def _alarm(signum, frame):
    raise QueryTimeout()


def call_with_timeout(fn, seconds):
    """(result, error) of fn(); error is the exception, or None on success."""
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        try:
            return fn(), None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except (QueryTimeout, Exception) as exc:  # a failed query; the run goes on
        return None, exc


def import_library():
    """Import mfcat from this checkout's src/, or exit with code 1."""
    if not os.path.isfile(os.path.join(SRC, "mfcat", "__init__.py")):
        sys.exit(f"perfbench: no mfcat sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import mfcat

    if not os.path.abspath(mfcat.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported mfcat from {mfcat.__file__}, not from {SRC}")


def set_up(workload, seed):
    """Import the library and build the workload; returns (plan, seconds at
    reference speed), with the host's speed sampled before, during and
    after."""
    speed = Speedometer()
    speed.sample(SETUP_SLICES)
    speed.start()
    try:
        t0 = speed.clock()
        import_library()
        import workloads

        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        plan, error = call_with_timeout(
            lambda: workloads.build(workload, seed, reference), SETUP_TIMEOUT)
        if error is not None:
            sys.exit(f"perfbench: set-up of {workload} failed: {error!r}")
        seconds = speed.clock() - t0
    finally:
        speed.stop()
    speed.sample(SETUP_SLICES)
    return plan, seconds * speed.factor()


def run_pass(plan, hard_deadline, errors, speed, tracer=None):
    """One pass over the query list: (query latencies, attempted, failed).

    Latencies are read from `speed.clock()`, so they leave out its slices,
    and are given in seconds at reference speed.  Notes the first failures
    in `errors`.
    """
    from workloads import FAILED

    query_id = tracer.name_id("query") if tracer else None

    def traced(fn):
        idx = tracer.open(query_id)
        try:
            return fn()
        finally:
            tracer.close(idx)

    latencies, starts, stops = array("d"), array("d"), array("d")
    attempted = failed = 0
    for group in plan.groups:
        results = []
        for fn in group.calls:
            if time.perf_counter() > hard_deadline:
                results.append(FAILED)
                continue
            call = (lambda fn=fn: traced(fn)) if tracer else fn
            starts.append(time.perf_counter())
            t0 = speed.clock()
            out, error = call_with_timeout(call, QUERY_TIMEOUT)
            latencies.append(speed.clock() - t0)
            stops.append(time.perf_counter())
            results.append(FAILED if error is not None else out)
            if error is not None and len(errors) < MAX_ERRORS:
                errors.append(f"{group.label}: {error!r}")
        verdicts, error = call_with_timeout(lambda: group.check(results), QUERY_TIMEOUT)
        if error is not None or len(verdicts) != len(results):
            verdicts = [False] * len(results)
        bad = sum(1 for v, r in zip(verdicts, results) if not v or r is FAILED)
        if bad and len(errors) < MAX_ERRORS:
            errors.append(f"{group.label}: {bad} of {len(results)} answers failed the check")
        attempted += len(results)
        failed += bad
    return speed.scale(starts, stops, latencies), attempted, failed


def measure(plan, seconds, speed, tracer=None):
    """A warm-up pass, then timed passes until the next would end after
    `seconds`.

    With a tracer, each untraced pass is followed by a traced one.  Keeps
    the query latencies of each timed pass that ran every query, untraced
    and traced; each traced pass's layer metrics, its times scaled by the
    pass's mean speed; and the attempted and failed counts of every pass.
    """
    start = time.perf_counter()
    hard = start + seconds + OVERRUN
    out = {"passes": 0, "untraced": [], "traced": [], "layers": [],
           "attempted": 0, "failed": 0, "errors": []}
    n_queries = sum(len(group.calls) for group in plan.groups)

    def one(key, tracer=None):
        mark = speed.mark()
        lat, att, fail = run_pass(plan, hard, out["errors"], speed, tracer)
        factor = speed.factor(mark)
        out["attempted"] += att
        out["failed"] += fail
        if key and len(lat) == n_queries:
            out[key].append(lat)
        return factor

    warm = True
    while True:
        t0 = time.perf_counter()
        one(None if warm else "untraced")
        if tracer:
            tracer.reset()
            factor = one("traced", tracer)
            out["layers"].append({
                key: value * factor if key.endswith(TIME_KEYS) else value
                for key, value in tracer.layer_metrics().items()})
        if not warm:
            out["passes"] += 1
        warm = False
        now = time.perf_counter()
        if now > hard:
            break
        if out["passes"] >= MIN_PASSES and now + (now - t0) > start + seconds:
            break
    out["elapsed_s"] = time.perf_counter() - start
    return out


def setup_samples(workload, seed, first):
    """setup_s samples: this process's plus SETUP_SAMPLES - 1 fresh ones."""
    samples = [first]
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT + 30)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up child failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def demo_failures(demos):
    """Names of `mfcat demo NAME --json` runs whose output differs from its hash."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    bad = []
    for name, expected in demos.items():
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mfcat.cli", "demo", name, "--json"],
                cwd=ROOT, env=env, capture_output=True, timeout=60)
            ok = proc.returncode == 0 and hashlib.sha256(proc.stdout).hexdigest() == expected
        except subprocess.TimeoutExpired:
            ok = False
        if not ok:
            bad.append(name)
    return bad


def run(args):
    plan, setup_s = set_up(args.workload, args.seed)
    speed = Speedometer()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(speed.clock)
        tracer.install()
    speed.start()
    try:
        res = measure(plan, args.seconds, speed, tracer)
    finally:
        speed.stop()
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bad_demos = demo_failures(plan.demos)
    attempted = res["attempted"] + len(plan.demos)
    failed = res["failed"] + len(bad_demos)
    for line in res["errors"]:
        print(f"perfbench: failed query {line}", file=sys.stderr)
    for name in bad_demos:
        print(f"perfbench: `mfcat demo {name} --json` differs from the recorded hash",
              file=sys.stderr)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: a warm-up and"
          f" {res['passes']} timed untraced passes and {len(res['layers'])} traced"
          f" passes of {len(plan.groups)} query groups in {res['elapsed_s']:.1f} s")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} failed,"
          f" {len(plan.demos)} demo hashes included)")

    if not res["untraced"]:
        sys.exit("perfbench: no timed pass ran every query")
    pass_s = [sum(lat) for lat in res["untraced"]]
    if args.trace:
        layers = res["layers"]
        metrics = dict(layers[0])
        for key in metrics:
            if key.endswith(TIME_KEYS):
                metrics[key] = statistics.median(m[key] for m in layers)
        metrics["trace.overhead_ratio"] = (
            statistics.median(sum(lat) for lat in res["traced"]) / statistics.median(pass_s))
        units = {key: "s" if key.endswith(TIME_KEYS) else
                 "ratio" if key.endswith("ratio") else "count" for key in metrics}
        print(f"at reference speed: untraced pass times"
              f" {', '.join(f'{x:.4f}' for x in pass_s)} s; traced"
              f" {', '.join(f'{sum(lat):.4f}' for lat in res['traced'])} s")
    else:
        setups = setup_samples(args.workload, args.seed, setup_s)
        pooled = [x for lat in res["untraced"] for x in lat]
        p90 = statistics.quantiles(pooled, n=10)[8]
        metrics = {
            "wall_s": statistics.median(pass_s),
            "query_p50_ms": 1000.0 * statistics.median(pooled),
            "query_p90_ms": 1000.0 * p90,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        units = {"wall_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms",
                 "peak_rss_mb": "MB", "setup_s": "s"}
        print(f"latency samples {len(pooled)}, every query call of {len(pass_s)} timed"
              f" passes; {sum(1 for x in pooled if x > p90)} beyond the p90")
        print(f"at reference speed: pass times {', '.join(f'{x:.4f}' for x in pass_s)} s;"
              f" set-ups {', '.join(f'{x:.4f}' for x in setups)} s")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def self_test():
    """Exact counters repeat across runs; the query timeout fires."""
    from tracing import EXACT

    import_library()
    from mfcat import PrimeField

    t0 = time.perf_counter()
    _, error = call_with_timeout(lambda: PrimeField(2**61 - 1), 1.0)
    took = time.perf_counter() - t0
    if not isinstance(error, QueryTimeout) or took > 5.0:
        sys.exit(f"self-test: PrimeField(2**61 - 1) gave {error!r} after {took:.2f} s")
    print(f"self-test: PrimeField(2**61 - 1) timed out after {took:.2f} s")

    for name in WORKLOAD_NAMES:
        seen = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", "7", "--seconds", "1", "--trace", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) \
                if proc.returncode == 0 else None
            if not (result and result["correct"]):
                sys.exit(f"self-test: {name} failed: {proc.stderr.strip()}")
            seen.append({k: result["metrics"][k]["value"] for k in EXACT})
        if seen[0] != seen[1]:
            sys.exit(f"self-test: {name}: exact counters differ: {seen}")
        print(f"self-test: {name}: {len(EXACT)} exact counters identical across two runs")
    print("self-test: PASS")


def run_all(args):
    """Run every workload in turn, each in its own process."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=args.seconds + 600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 else None
    print(json.dumps(results))
    if not all(r and r["correct"] for r in results.values()):
        sys.exit(1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        _, seconds = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return
    run(args)


if __name__ == "__main__":
    main()
