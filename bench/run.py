"""stardecomp benchmark: one seeded workload, measured for a fixed time.

    python3 bench/run.py --workload shift-model|cli-cold \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`
directory.  One caller drives a closed loop: the next instance starts only
after the previous one returned.  Whole rounds of the workload's mix are
repeated until S seconds of instance time and at least 100 instances have
been measured.  Every answer passes a correctness gate.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run (see tracer.py).  Lines before it describe the environment and
break the numbers down; README.md explains the workloads.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MIN_INSTANCES = 100
SETUP_REPS = (3, 4)  # set-ups before and after the timed rounds
WALL_LIMIT_S = 140.0  # stop starting instances after this, to exit well within 180 s
IMPORT_PROBE = ("import time; t = time.perf_counter(); import stardecomp.cli; "
                "print(time.perf_counter() - t)")
E2E_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


class Tally:
    """Outcome of a sequence of timed instances."""

    def __init__(self):
        self.latencies = []  # seconds, one per instance that returned
        self.by_label = {}
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.passed = {}  # one passing (item, answer) per kind, for the self-check

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def _note(msg: str):
    print(f"# {msg}", flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def fresh_import_s(env: dict) -> float:
    """Import time of stardecomp.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": {var: os.environ[var] for var in THREAD_VARS}}


def run_rounds(wl, execute, seconds: float, min_count: int) -> Tally:
    """Repeat whole rounds until `seconds` of instance time and `min_count`
    instances are reached."""
    tally = Tally()
    while True:
        for item in wl.round:
            if time.perf_counter() - STARTED > WALL_LIMIT_S:
                _note("wall-clock limit reached; stopping mid-round")
                return tally
            tally.attempted += 1
            try:
                dt, out = execute(item)
            except Exception:  # an instance that raises is a failed instance
                tally.failed += 1
                if tally.failed <= 3:
                    _note(f"{item.label} raised:\n{traceback.format_exc()}")
                continue
            tally.latencies.append(dt)
            tally.by_label.setdefault(item.label, []).append(dt)
            if gate_passes(wl, item, out):
                tally.passed.setdefault(item.label, (item, out))
            else:
                tally.failed += 1
                _note(f"{item.label}: answer failed its correctness gate")
        tally.rounds += 1
        if tally.busy >= seconds and len(tally.latencies) >= min_count:
            return tally


def gate_passes(wl, item, out) -> bool:
    try:
        return bool(wl.check(item, out))
    except Exception:  # a gate that cannot even read the answer rejects it
        return False


def self_check(wl, passed: dict) -> bool:
    """Hand the gate one corrupted copy of a real answer per kind; each must fail."""
    from workloads import corrupt

    rejected = 0
    for label, (item, out) in passed.items():
        if gate_passes(wl, item, corrupt(out)):
            _note(f"self-check: the gate accepted a corrupted {label} answer")
        else:
            rejected += 1
    _note(f"self-check: {rejected} of {len(passed)} corrupted answers rejected "
          f"(failed_frac {rejected / max(len(passed), 1):.3f} on that batch)")
    return bool(passed) and rejected == len(passed)


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def set_up(wl, env: dict) -> float:
    """Time one set-up: a fresh interpreter's import plus the workload's own."""
    fresh = fresh_import_s(env)
    t = time.perf_counter()
    wl.setup()
    return fresh + time.perf_counter() - t


def end_to_end(wl, workload: str, seconds: float, setup_samples: list, set_up_again) -> tuple:
    tally = run_rounds(wl, wl.execute, seconds, MIN_INSTANCES)
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # before the set-ups below
    # Set-ups after the timed rounds as well, so that their median spans the
    # host's speed over the whole run, as the latencies do.
    setup_samples += [set_up_again() for _ in range(SETUP_REPS[1])]
    lat = tally.latencies
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "throughput_per_s": (tally.attempted - tally.failed) / tally.busy,
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * quantile(lat, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    _note(f"setup samples {[round(s, 4) for s in setup_samples]}")
    _note(f"{len(lat)} instances in {tally.rounds} rounds of {len(wl.round)}, "
          f"{tally.busy:.2f} s of instance time; failed_frac "
          f"{tally.failed / tally.attempted:.4f} (ratio)")
    for name, value in metrics.items():
        _note(f"{name} = {value:.6g} {E2E_UNITS[name]}")
    for label, times in sorted(tally.by_label.items(), key=lambda kv: -statistics.median(kv[1])):
        _note(f"  {label:40s} n={len(times):4d} median {1e3 * statistics.median(times):9.2f} ms")
    return tally, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def traced(wl, workload: str, seconds: float, seed: int, import_s: float) -> tuple:
    """Each instance runs untraced and traced back to back, in alternating
    order, so host speed drift and warm-up cancel out of the overhead."""
    from tracer import Tracer, metric_units

    tracer = Tracer()
    spans_path = OUT_DIR / "child-spans.json"
    if workload == "cli-cold":
        prefix = (sys.executable, str(Path(__file__).with_name("launcher.py")), str(spans_path), "--")

        def traced_execute(inv):
            spans_path.unlink(missing_ok=True)  # a child that writes nothing fails here
            with tracer.request() as request:
                out = wl.execute(inv, prefix)
            with open(spans_path) as fh:
                tracer.absorb(json.load(fh), request)
            return out
    else:
        tracer.counters["import_s"] = import_s

        def traced_execute(case):
            tracer.install()
            try:
                with tracer.request():
                    return wl.execute(case)
            finally:
                tracer.uninstall()

    plain_s = []

    def paired(item):
        if len(plain_s) % 2:
            out = traced_execute(item)
            plain_s.append(wl.execute(item)[0])
        else:
            plain_s.append(wl.execute(item)[0])
            out = traced_execute(item)
        return out

    traced_tally = run_rounds(wl, paired, seconds / 2, 1)
    spans_path.unlink(missing_ok=True)
    overhead = traced_tally.busy / sum(plain_s) - 1
    layer = tracer.layer_metrics(overhead)
    tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.json")

    self_times = {k[:-len(".self_s")]: v for k, v in layer.items() if k.endswith(".self_s")}
    total = sum(self_times.values()) + layer["cli.import_s"]
    _note(f"traced {len(traced_tally.latencies)} instances ({traced_tally.rounds} rounds); "
          f"overhead {overhead:+.3f}; attributed self time {total:.2f} s")
    _note("no layer queues work, so no wait time is reported")
    shares = dict(self_times, **{"cli.import": layer["cli.import_s"]})
    for name, value in sorted(shares.items(), key=lambda kv: -kv[1])[:10]:
        _note(f"  {name:34s} {value:9.3f} s  {value / total:6.1%}")

    def share(prefixes):
        return sum(v for k, v in shares.items() if k.startswith(prefixes)) / total

    _note(f"share numpy.svd {share(('numpy.svd',)):.1%}; elements+linalg+proj_matrix "
          f"{share(('elements.', 'linalg.', 'subspaces.proj_matrix')):.1%}; "
          f"cli.import+exactrings {share(('cli.import', 'exactrings.')):.1%} "
          f"(with the time exactrings spends in other layers "
          f"{(layer['cli.import_s'] + tracer.inclusive_s('exactrings.')) / total:.1%})")
    units = metric_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    return traced_tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("shift-model", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "stardecomp"
    if not (package / "__init__.py").is_file():
        print(f"error: {package} not found; run from the root of a stardecomp checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import stardecomp.cli

    import_s = time.perf_counter() - t0
    if Path(stardecomp.cli.__file__).resolve().parent != package.resolve():
        print(f"error: imported {stardecomp.cli.__file__}, not the checkout's copy", file=sys.stderr)
        return 2
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, env)

    setup_samples = [set_up(wl, env) for _ in range(SETUP_REPS[0])]
    _note(f"env {json.dumps(environment())}")
    _note(f"workload {args.workload} seed {args.seed}: {len(wl.round)} instances per round, "
          f"closed loop, 1 caller")

    if args.trace:
        tally, metrics = traced(wl, args.workload, args.seconds, args.seed, import_s)
    else:
        def set_up_again():  # on a fresh workload object, as at the start
            return set_up(workloads.WORKLOADS[args.workload](ROOT, args.seed, env), env)

        tally, metrics = end_to_end(wl, args.workload, args.seconds, setup_samples, set_up_again)
    checked = self_check(wl, tally.passed)
    result = {"correct": tally.failed == 0 and tally.attempted > 0 and checked,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
