"""Benchmark of the flagmaps package and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository (anywhere inside it works). The
workloads are described in bench/README.md and BENCHMARK.json. Each run
is one closed-loop caller: every pass of the workload's operations runs
in a fresh interpreter (bench/worker.py), one after another, with no
pool and no threads.

--trace 0: set-up is timed over SETUP_SAMPLES fresh interpreters, then
passes run until the next one would overrun S seconds of measurement
(at least one). Prints every end-to-end metric of BENCHMARK.json.
--trace 1: one untraced pass, then one traced pass; prints every
per-layer metric, the traced wall time and the tracing overhead.

Every output is checked; an operation whose check fails counts in
`failed`. Before the result, one line of JSON records the environment
and the per-run detail (samples, quartiles, failures). The last line of
stdout is the result object. The run exits non-zero without a result
when the checkout has no flagmaps source or a worker dies.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from speed import Speedometer, rescaled  # noqa: E402

SETUP_SAMPLES = 11
SETUP_PER_PASS = 5
WORKER_TIMEOUT_S = 150


class Runner:
    """Spawns workers for one run and keeps the files they exchange in a
    work directory of the checkout, removed when the run ends."""

    def __init__(self):
        self.workdir = ROOT / ".bench_work" / str(os.getpid())
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.spawned = 0
        # Set-up and output must not depend on the caller's alias file,
        # and workers import from cached bytecode, as an installed CLI
        # does, whatever the caller's PYTHONDONTWRITEBYTECODE says.
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("FLAGMAPS_ALIASES",
                                 "PYTHONDONTWRITEBYTECODE")}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass

    def spawn(self, mode, plan=None):
        """Run one worker to completion; its result with "setup_s" added."""
        self.spawned += 1
        out = self.workdir / f"result{self.spawned}.json"
        argv = [sys.executable, str(BENCH / "worker.py"), mode]
        argv += [str(plan)] if plan else []
        begin = time.perf_counter()
        subprocess.run(argv + [str(out)], env=self.env, cwd=ROOT,
                       stdout=subprocess.DEVNULL, check=True,
                       timeout=WORKER_TIMEOUT_S)
        result = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        result["setup_s"] = result["ready"] - begin
        return result


def _percentile(values, q):
    """Linear interpolation between order statistics (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _quartiles(values):
    return [_percentile(values, q) for q in (25, 50, 75)] if values else []


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read from files."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(
                encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(seed):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
            "platform": platform.platform(), "commit": _git_commit(),
            "seed": seed, "loadavg_start": os.getloadavg()}


class Outcome:
    """Checks each pass's results; counts attempted and failed operations."""

    def __init__(self, workload, ops):
        self.workload = workload
        self.ops = ops
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def check_pass(self, results):
        for index, (op, res) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            reason = self._check(index, op, res)
            if reason:
                self.failures.append(f"{' '.join(op['argv'])}: {reason}")
            if self.workload == "transform":
                for path in workloads.transform_outputs(op):
                    Path(path).unlink(missing_ok=True)

    def _check(self, index, op, res):
        if self.workload != "transform" or op["reject"]:
            return workloads.check(self.workload, op, res)
        # Transform outputs run to tens of thousands of flags; a pass
        # after the first must reproduce the first pass's checked bytes.
        try:
            digest = [hashlib.sha256(Path(p).read_bytes()).hexdigest()
                      for p in workloads.transform_outputs(op)]
        except OSError as exc:
            return f"missing output: {exc}"
        if self.digests.get(index) == digest:
            return None
        reason = workloads.check(self.workload, op, res)
        if reason is None:
            self.digests[index] = digest
        return reason


def _scaled(res):
    """A pass's operation times rescaled to the reference speed."""
    return [rescaled(t, ref) for t, ref in zip(res["times"], res["refs"])]


def _setup_sample(runner, meter):
    """(raw, rescaled) set-up time of one fresh interpreter, scaled by
    kernels run just before and just after it."""
    before = [meter.kernel() for _ in range(3)]
    raw = runner.spawn("setup")["setup_s"]
    after = [meter.kernel() for _ in range(3)]
    return raw, rescaled(raw, sum(before + after) / 6)


def _measure(runner, outcome, plan, seconds):
    """Untraced passes until the next one would overrun `seconds`, with
    set-up samples taken before each pass so they span the same time."""
    runner.spawn("setup")  # warm-up: compiles bytecode on a fresh checkout
    meter = Speedometer()
    samples = []
    passes = []
    measured = 0.0
    while True:
        samples += [_setup_sample(runner, meter)
                    for _ in range(SETUP_PER_PASS)]
        res = runner.spawn("run", plan)
        outcome.check_pass(res["results"])
        passes.append(res)
        raw = sum(res["times"])
        measured += raw
        if measured + raw > seconds:
            break
    while len(samples) < SETUP_SAMPLES:
        samples.append(_setup_sample(runner, meter))
    setups = [scaled for _, scaled in samples]
    walls = [sum(_scaled(p)) for p in passes]
    if outcome.workload == "census":
        # one operation here is a whole census in a fresh process
        latencies = walls
    else:
        latencies = [t for p in passes for t in _scaled(p)]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_s": _percentile(latencies, 50),
        "op_p90_s": _percentile(latencies, 90),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "success_ratio": 1.0 - len(outcome.failures) / outcome.attempted,
    }
    raw_walls = [sum(p["times"]) for p in passes]
    raw_ops = [t for p in passes for t in p["times"]]
    detail = {"passes": len(passes), "ops_per_pass": len(outcome.ops),
              "latency_samples": len(latencies),
              "setup_samples": len(setups),
              "quartiles": {"setup_s": _quartiles(setups),
                            "raw_setup_s": _quartiles(
                                [raw for raw, _ in samples]),
                            "wall_s": _quartiles(walls),
                            "op_s": _quartiles(latencies),
                            "raw_wall_s": _quartiles(raw_walls),
                            "raw_op_s": _quartiles(raw_ops),
                            "reference_s": _quartiles(
                                [r for p in passes for r in p["refs"]])}}
    return metrics, detail


def _trace(runner, outcome, plan):
    """One untraced pass, then one traced pass of the same operations."""
    plain = runner.spawn("run", plan)
    outcome.check_pass(plain["results"])
    traced = runner.spawn("trace", plan)
    outcome.check_pass(traced["results"])
    metrics = dict(traced["layers"])
    types = 0
    if outcome.workload == "census":
        types = sum(line.startswith("stg;") for res in traced["results"]
                    for line in res["stdout"].splitlines())
    metrics["enumeration.conjugate_per_type"] = (
        metrics["permtools.conjugate.calls"] / types if types else 0.0)
    metrics["trace.wall_s"] = sum(_scaled(traced))
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - sum(_scaled(plain))
    detail = {"untraced_raw_wall_s": sum(plain["times"]),
              "traced_raw_wall_s": sum(traced["times"]),
              "untraced_layers": traced["untraced"]}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flagmaps" / "__init__.py").is_file():
        print(f"error: no flagmaps source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = _environment(args.seed)
    runner = Runner()
    try:
        ops = workloads.plan(args.workload, args.seed, runner.workdir)
        plan = runner.workdir / "plan.json"
        plan.write_text(json.dumps(ops), encoding="utf-8")
        outcome = Outcome(args.workload, ops)
        if args.trace:
            values, detail = _trace(runner, outcome, plan)
            wanted = spec["per_layer"]
        else:
            values, detail = _measure(runner, outcome, plan, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        runner.close()
    env["loadavg_end"] = os.getloadavg()
    for reason in outcome.failures[:10]:
        print(f"check failed: {reason}", file=sys.stderr)
    detail.update(workload=args.workload, trace=args.trace,
                  failures=outcome.failures[:10], environment=env)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
