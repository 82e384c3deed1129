"""The benchmark's two fixed job lists.

A round runs every job of its workload once.  Cheap jobs appear several
times in the list, so that each command metric sums enough calls per round
to be steady.  Inputs involve no randomness: the seed only shuffles the
order of the jobs inside each round.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import checks

EPS = 1e-3
EPS_SERIES = (1e-1, 1e-2, 1e-3)
HADAMARD_DIM = 256


@dataclass(frozen=True)
class CliJob:
    """One `cvqec.cli.main` call; `check(output, exit_code)` raises on a wrong result."""

    metric: str
    argv: tuple[str, ...]
    check: Callable[[dict, int], None]


@dataclass(frozen=True)
class CombJob:
    """One `cvqec.combs.gkp_apply` call on the zero-phase comb at offset + 2N t."""

    gate: str
    N: int
    offset: Fraction
    metric: str = "comb_gate_s"


@dataclass(frozen=True)
class Workload:
    bundles: tuple[tuple[CliJob, str], ...]  # (build-code job, path) the set-up writes
    jobs: tuple[CliJob | CombJob, ...]
    alg1_sizes: tuple[tuple[int, int], ...]  # (D, G) pairs whose permutation is checked once per run


def _rot_args(N: int, D: int) -> tuple[str, ...]:
    return ("build-code", "--family", "rot", "--N", str(N), "--D", str(D), "--eps", str(EPS))


def _gkp_args(N: int) -> tuple[str, ...]:
    return ("build-code", "--family", "gkp", "--N", str(N))


def _built(check_bundle, bundle: dict, rc: int) -> None:
    if rc != 0:
        raise checks.Mismatch(f"build-code exited {rc}")
    check_bundle(bundle)


def _rot_jobs(work: Path, N: int, D: int) -> tuple[list, list[CliJob]]:
    """Build, logical and detect jobs; the checks read the set-up's bundle."""
    code = str(work / f"rot-N{N}-D{D}.json")
    jobs = [
        CliJob("build_code_s", _rot_args(N, D),
               partial(_built, partial(checks.check_rot_bundle, N=N, D=D, eps=EPS))),
        CliJob("check_logical_s", ("check", "--code", code, "--suite", "logical"),
               partial(checks.check_rot_logical, N=N, D=D, eps=EPS)),
        CliJob("check_detect_s", ("check", "--code", code, "--suite", "detect"),
               partial(checks.check_rot_detect, N=N, D=D, eps=EPS)),
    ]
    return [(jobs[0], code)], jobs


def _gkp_jobs(work: Path, N: int) -> tuple[list, list[CliJob]]:
    code = str(work / f"gkp-N{N}.json")
    jobs = [
        CliJob("build_code_s", _gkp_args(N), partial(_built, partial(checks.check_gkp_bundle, N=N))),
        CliJob("check_logical_s", ("check", "--code", code, "--suite", "logical"), checks.check_gkp_logical),
    ]
    return [(jobs[0], code)], jobs


def _bridge_job(N: int, D: int) -> CliJob:
    series = ",".join(str(e) for e in EPS_SERIES)
    argv = ("bridge", "--N", str(N), "--D", str(D), "--eps-series", series,
            "--hadamard-dim", str(HADAMARD_DIM))
    check = partial(checks.check_bridge, N=N, eps_series=EPS_SERIES, dim=HADAMARD_DIM)
    return CliJob("bridge_s", argv, check)


def _alg1_job(D: int, G: int) -> CliJob:
    argv = ("alg1", "--D", str(D), "--G", str(G))
    return CliJob("alg1_s", argv, partial(checks.check_alg1_report, D=D, G=G))


def _metric_repeats(jobs: list, repeats: dict[str, int]) -> list:
    """Each job `repeats[job.metric]` times; other jobs once."""
    return [job for job in jobs for _ in range(repeats.get(job.metric, 1))]


def rot_2048(work: Path) -> Workload:
    """Rotation side at D=2048, where dense D x D operator storage dominates.

    The gkp N=3 bundle and its logical check keep the exact comb suite on
    this workload too, so every layer is measured on both workloads.
    """
    bundles, jobs = _rot_jobs(work, 3, 2048)
    gkp_bundles, gkp_jobs = _gkp_jobs(work, 3)
    combs = [CombJob(g, 3, Fraction(3 * j)) for j in (0, 1) for g in ("Z", "S", "T", "X", "stab_q", "stab_p")]
    jobs += gkp_jobs + [_bridge_job(3, 2048), _alg1_job(2048, 2)] + combs
    jobs = _metric_repeats(jobs, {"build_code_s": 5, "alg1_s": 2, "comb_gate_s": 5})
    return Workload(tuple(bundles + gkp_bundles), tuple(jobs), ((2048, 2),))


def sweep_exact(work: Path) -> Workload:
    """Many small rotation jobs plus the exact layers: Fraction arithmetic and period search."""
    bundles, jobs = [], []
    for N in range(1, 9):
        for D in (64, 256):
            b, j = _rot_jobs(work, N, D)
            bundles += b
            jobs += j
        b, j = _gkp_jobs(work, N)
        bundles += b
        jobs += j
        jobs.append(_bridge_job(N, 64))
    alg1_sizes = ((64, 64), (8, 512))
    jobs += [_alg1_job(D, G) for D, G in alg1_sizes]
    offsets = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    jobs += [CombJob(g, N, off) for N in (1, 2, 3) for off in offsets for g in ("S", "T")]
    jobs = _metric_repeats(jobs, {"build_code_s": 3, "bridge_s": 3, "alg1_s": 2})
    return Workload(tuple(bundles), tuple(jobs), alg1_sizes)


WORKLOADS = {"rot-2048": rot_2048, "sweep-exact": sweep_exact}
