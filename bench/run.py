"""cvqec benchmark: per-command wall time and peak memory on fixed workloads.

Run from the repository root:

    python3 bench/run.py --workload rot-2048 --seed 1 --seconds 58 --trace 0

A run repeats whole rounds in this process while the next round still fits
in `--seconds`.  A round calls every job of the workload once, in an order
shuffled by `--seed`, and checks each output against an independent
computation.  Every time is scaled to a fixed host speed by the reference
work timed between operations (see reference.py).  Set-up is a fresh
interpreter that imports `cvqec.cli` and writes the workload's input
bundles.  It runs before the first round and after each untraced round, so
`setup_s`, the median of these times, samples the whole run.  With
`--trace 1` rounds alternate between untraced and traced, and the traced
ones give per-layer self times.  The last line of standard output is one
JSON object with the results.
"""

from __future__ import annotations

import os

# One BLAS thread: on a host with two vCPUs a second thread measures the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import reference
import spans
from workloads import WORKLOADS, CliJob

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 9
SETUP_REFERENCES = 5  # reference times taken on each side of a set-up
MB = 2**20

LAYER_UNITS = {
    "fock.operator_mb": "MB",
    "fock.operators": "count",
    "verify.rows": "count",
    "combs.pattern_len": "count",
}
COMMAND_METRICS = ("build_code_s", "check_logical_s", "check_detect_s", "bridge_s", "alg1_s", "comb_gate_s")

SETUP_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from cvqec import cli
for argv in json.loads(sys.argv[2]):
    if cli.main(argv) != 0:
        sys.exit(3)
"""


class SetupError(RuntimeError):
    pass


def time_setup(bundles: list[list[str]]) -> float:
    """Scaled wall time of one fresh interpreter importing cvqec.cli and writing the bundles."""
    refs = [reference.measure() for _ in range(SETUP_REFERENCES)]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_SCRIPT, str(SRC), json.dumps(bundles)],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SetupError(f"set-up interpreter exited {proc.returncode}: {proc.stderr.strip()}")
    refs += [reference.measure() for _ in range(SETUP_REFERENCES)]
    return elapsed * reference.factor(refs)


class Runner:
    """Runs and checks the jobs of one workload; counts failures across rounds."""

    def __init__(self, workload, work: Path, modules: dict, seed: int):
        self.jobs = workload.jobs
        self.work = work
        self.cli = modules["cli"]
        self.combs = modules["combs"]
        self.order = list(range(len(self.jobs)))
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.counts: dict[str, int] = {}
        self.factors: list[float] = []  # host-speed scale of each operation of the last round
        unit = self.combs.bridge_unit
        self.inputs = {
            i: self.combs.periodic_comb(unit(job.N), job.offset, 2 * job.N, [0])
            for i, job in enumerate(self.jobs)
            if not isinstance(job, CliJob)
        }

    def _fail(self, index: int, what: str, mismatch: bool) -> None:
        self.failed += 1
        self.mismatches += mismatch
        print(f"job {index} {self.jobs[index]}: {what}", file=sys.stderr)

    def round(self, tracer=None) -> dict[str, float]:
        """One round; returns the summed scaled wall time per command metric."""
        elapsed: list[tuple[str, float]] = []
        counts = {"verify.rows": 0, "combs.pattern_len": 0}
        self.rng.shuffle(self.order)
        gc.collect()
        refs = [reference.measure()]
        for i in self.order:
            job = self.jobs[i]
            self.attempted += 1
            if isinstance(job, CliJob):
                out = self.work / f"out-{i}.json"
                out.unlink(missing_ok=True)
                call, args = self.cli.main, ([*job.argv, "--out", str(out)],)
                name = "cli"
            else:
                call, args = self.combs.gkp_apply, (job.gate, self.inputs[i], job.N)
                name = "combs.gate"
            error = None
            start = time.perf_counter()
            try:
                result = tracer.call(name, call, *args) if tracer else call(*args)
            except Exception as exc:
                error = exc
            elapsed.append((job.metric, time.perf_counter() - start))
            refs.append(reference.measure())
            if error is not None or (name == "cli" and result == 2):
                what = "".join(traceback.format_exception(error)) if error else "exit code 2"
                self._fail(i, what, mismatch=False)
                continue
            try:
                if name == "cli":
                    output = json.loads(out.read_text())
                    job.check(output, result)
                    counts["verify.rows"] += len(output.get("results", ()))
                else:
                    checks.check_comb_gate(job.gate, job.N, job.offset, result)
                    counts["combs.pattern_len"] += len(result.periodic.pattern)
            except Exception:
                self._fail(i, traceback.format_exc(), mismatch=True)
        self.counts = counts
        self.factors = reference.factors(refs)
        times = dict.fromkeys(COMMAND_METRICS, 0.0)
        for (metric, seconds), scale in zip(elapsed, self.factors):
            times[metric] += seconds * scale
        return times


def _median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def check_setup_outputs(workload, isometries) -> bool:
    """The set-up's bundles, and once per (D, G) the permutation of `alg1_pipeline`."""
    correct = True
    for job, path in workload.bundles:
        try:
            job.check(json.loads(Path(path).read_text()), 0)
        except checks.Mismatch as exc:
            print(f"set-up bundle {path}: {exc}", file=sys.stderr)
            correct = False
    for D, G in workload.alg1_sizes:
        result = isometries.alg1_pipeline(D, G)
        try:
            checks.check_alg1_sigma(result.sigma, result.grid_values, result.block_op.diagonal_values(), D, G)
        except checks.Mismatch as exc:
            print(f"alg1 permutation at D={D}, G={G}: {exc}", file=sys.stderr)
            correct = False
    return correct


def traced_round(runner: Runner, tracer: spans.Tracer, modules: dict) -> tuple[dict, dict]:
    """One round with spans; returns its command times and its per-layer metrics."""
    first = len(tracer.spans)
    tracer.counts.clear()
    with spans.instrument(tracer, modules):
        times = runner.round(tracer)
    layer = tracer.self_times(first, runner.factors)
    layer["fock.operators"] = tracer.counts["fock.operators"]
    layer["fock.operator_mb"] = tracer.counts["fock.operator_bytes"] / MB
    layer.update(runner.counts)
    return times, layer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cvqec" / "__init__.py").is_file():
        print(f"error: no cvqec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    began = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        workload = WORKLOADS[args.workload](Path(tmp))
        bundles = [[*job.argv, "--out", path] for job, path in workload.bundles]
        setup = [time_setup(bundles)]

        from cvqec import cli, combs, fock, isometries

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported cvqec from {cli.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        modules = {"cli": cli, "combs": combs, "fock": fock, "isometries": isometries}
        correct = check_setup_outputs(workload, isometries)
        runner = Runner(workload, Path(tmp), modules, args.seed)
        tracer = spans.Tracer() if args.trace else None
        plain, traced, layers = [], [], []
        # start a round only while one more, as long as the median so far, ends within --seconds
        durations: list[float] = []
        while (time.perf_counter() - began + statistics.median(durations or [0.0]) < args.seconds
               or not plain or (tracer and not traced)):
            start = time.perf_counter()
            if tracer is None or len(plain) <= len(traced):
                plain.append(runner.round())
                print("round", json.dumps(plain[-1]), file=sys.stderr)
                if tracer is None:
                    setup.append(time_setup(bundles))
            else:
                times, layer = traced_round(runner, tracer, modules)
                traced.append(times)
                layers.append(layer)
            durations.append(time.perf_counter() - start)
        while tracer is None and len(setup) < SETUP_RUNS:
            setup.append(time_setup(bundles))

    if tracer is None:
        metrics = {"setup_s": (statistics.median(setup), "s")}
        metrics.update({m: (_median_of(plain, m), "s") for m in COMMAND_METRICS})
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = {k: (_median_of(layers, k), LAYER_UNITS.get(k, "s")) for k in layers[0]}
        # each traced round follows an untraced one; pairing them cancels slow host drift
        overhead = [sum(t.values()) - sum(p.values()) for t, p in zip(traced, plain)]
        metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced rounds", file=sys.stderr)
    print(json.dumps({
        "correct": correct and runner.mismatches == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
