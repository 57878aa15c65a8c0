"""Run one workload of the jacobi-heat benchmark and print its metrics.

    python3 perfbench/run.py --workload mc_euler --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the package is imported from its src/.
Rounds of the workload's operations repeat until --seconds have passed; the
outputs are then checked, and the workload's known-defect probes, if any, run
once with only their outcome recorded.  The last line of standard output is
one JSON object {correct, attempted, failed, metrics}: with --trace 0 the metrics are
the end_to_end list of BENCHMARK.json, with --trace 1 its per_layer list, taken
with every layer function wrapped (perfbench/tracer.py).  The line before it
records the commit, the machine, the library versions and the workload's
details.  Without an importable package the script exits 2 and prints no
result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


class Deadline(BaseException):
    """Raised from SIGALRM when an operation outlives its deadline.

    A BaseException, so that no `except Exception` inside the program can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise Deadline


def timed(op, deadline):
    """Run one operation; returns (seconds, output, outcome) with outcome ok, failed or timeout."""
    if deadline:
        signal.setitimer(signal.ITIMER_REAL, deadline)
    t0 = time.perf_counter()
    try:
        try:
            out = op.call()
            seconds = time.perf_counter() - t0
        finally:
            if deadline:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return deadline, None, "timeout"
    except Exception as exc:  # the loop must go on; the failure is counted and reported
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}", "failed"
    return seconds, out, "ok"


class Round:
    def __init__(self):
        self.latencies = []
        self.labels = []
        self.work = 0
        self.failures = []

    @property
    def seconds(self):
        return sum(self.latencies)


def run_phase(workload, seconds, first_round, tracer=None):
    """Repeat rounds until `seconds` have passed (at least one round)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        r = first_round + len(rounds)
        rnd = Round()
        for op in workload.round_ops(r):
            latency, out, outcome = timed(op, workload.deadline_s)
            if tracer is not None:
                tracer.reset_stack()
            work = workload.after(r, op, out) if outcome == "ok" else None
            if work is None:
                reason = {"ok": f"refused, returned {out!r}", "failed": out}.get(outcome, outcome)
                rnd.failures.append(f"round {r} {op.label}: {reason}")
            rnd.latencies.append(latency)
            rnd.labels.append(op.label)
            rnd.work += work or 0
        rounds.append(rnd)
    return rounds


def run_probes(workload):
    """Time each known-defect probe once, unwrapped and outside every metric."""
    records = []
    for op in workload.probe_ops():
        seconds, out, outcome = timed(op, workload.probe_deadline_s)
        record = {"request": op.label, "outcome": outcome, "seconds": seconds}
        if outcome == "ok":
            record["errors"] = workload.probe_errors(op, out)
        elif outcome == "failed":
            record["errors"] = [out]
        records.append(record)
    return records


def measure_setup(workload):
    """Median over fresh interpreters of the time to import and make the first call."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def git_commit(root):
    """The commit of a git checkout at root, or None (benchmark checkouts carry no .git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine():
    import numpy
    import scipy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "cache_per_cpu0": {},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info["cache_per_cpu0"][f"L{level}"] = size
    return info


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def percentile_ms(values, q):
    import numpy as np

    return 1e3 * float(np.percentile(values, q))


def end_to_end(rounds, failed, setup_s, rss_mb):
    latencies = [x for rnd in rounds for x in rnd.latencies]
    attempted = len(latencies)
    busy = sum(rnd.seconds for rnd in rounds)
    return {
        "setup_s": setup_s,
        # the mean, not the median: a shared host can alternate between a fast
        # and a slow state for tens of seconds; a run's mean mixes the two, its
        # median snaps to one
        "wall_s": busy / len(rounds),
        "op_ms_p50": percentile_ms(latencies, 50),
        "op_ms_p90": percentile_ms(latencies, 90),
        "throughput_per_s": sum(rnd.work for rnd in rounds) / busy,
        "peak_rss_mb": rss_mb,
        "completed_frac": 1.0 - failed / attempted,
    }


def median_ms_by_label(rounds):
    by_label = {}
    for rnd in rounds:
        for label, latency in zip(rnd.labels, rnd.latencies):
            by_label.setdefault(label, []).append(1e3 * latency)
    return {label: statistics.median(v) for label, v in by_label.items()}


def workload_names(name, e2e):
    """The end-to-end figures under the names each workload's users know them by."""
    named = {"op_ms_p50": (e2e["op_ms_p50"], "ms"), "op_ms_p90": (e2e["op_ms_p90"], "ms")}
    if name == "mc_euler":
        named["path_steps_per_s"] = (e2e["throughput_per_s"], "1/s")
    elif name == "density_grid":
        named["request_ms_p50"] = (e2e["op_ms_p50"], "ms")
        named["request_ms_p90"] = (e2e["op_ms_p90"], "ms")
        named["points_per_s"] = (e2e["throughput_per_s"], "1/s")
        named["failed_frac"] = (1.0 - e2e["completed_frac"], "1")
    else:
        named["report_s_p50"] = (e2e["op_ms_p50"] / 1e3, "s")
    return {key: {"value": value, "unit": unit} for key, (value, unit) in named.items()}


def main(argv=None):
    t0 = time.perf_counter()  # set-up is timed from here; numpy and the package load below
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        import jacobi_heat
    except ImportError as exc:
        print(f"error: cannot import jacobi_heat from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(jacobi_heat.__file__).resolve().parent.parent != ROOT / "src":
        print(f"error: jacobi_heat was imported from {jacobi_heat.__file__}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.setup_probe:
            WORKLOADS[args.workload].first_call(workdir)
            print(time.perf_counter() - t0)
            return 0
        signal.signal(signal.SIGALRM, _on_alarm)
        return run(args, spec, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def per_layer(tracer, untraced, traced, bytes_out_per_round):
    values = tracer.layer_metrics(len(traced))
    traced_s = statistics.median(rnd.seconds for rnd in traced)
    values["trace.overhead_frac"] = traced_s / statistics.median(rnd.seconds for rnd in untraced) - 1.0
    values["trace.sde_frac"] = values.get("sde.s", 0.0) / statistics.mean(rnd.seconds for rnd in traced)
    values["cli.bytes_out"] = bytes_out_per_round
    return values


def run(args, spec, workload_cls, workdir):
    from perfbench.tracer import Tracer

    setup_s = None if args.trace else measure_setup(args.workload)
    workload_cls.first_call(workdir)
    workload = workload_cls(args.seed, workdir)
    if args.trace:
        untraced = run_phase(workload, args.seconds / 2.0, 0)
        tracer = Tracer()
        with tracer.installed():
            traced = run_phase(workload, args.seconds / 2.0, len(untraced), tracer)
        all_rounds = untraced + traced
    else:
        all_rounds = run_phase(workload, args.seconds, 0)
        rss_mb = peak_rss_mb()
    t_check = time.perf_counter()
    wrong, errors = workload.finish()
    check_s = time.perf_counter() - t_check
    probes = run_probes(workload)
    failures = [f for rnd in all_rounds for f in rnd.failures] + wrong

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "machine": machine(),
        "rounds": len(all_rounds),
        "round_s": [rnd.seconds for rnd in all_rounds],
        "ops": sum(len(rnd.latencies) for rnd in all_rounds),
        "work_unit": workload.work_unit,
        "op_ms_median_by_label": median_ms_by_label(all_rounds),
        "failures": failures,
        "run_check_errors": errors,
        "check_s": check_s,
        "known_defect_probes": probes,
        **workload.context(),
    }
    if args.trace:
        values = per_layer(tracer, untraced, traced, workload.bytes_out / len(all_rounds))
        wanted = spec["per_layer"]
        context["traced_rounds"] = len(traced)
        context["tracing_overhead_frac"] = values["trace.overhead_frac"]
    else:
        values = end_to_end(all_rounds, len(failures), setup_s, rss_mb)
        wanted = spec["end_to_end"]
        context.update(workload_names(args.workload, values))
    print(json.dumps({"context": context}))
    result = {
        "correct": not errors,
        "attempted": context["ops"],
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
