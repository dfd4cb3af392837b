"""Seeded inputs for the three workloads.

A workload is an endless sequence of rounds; round r is drawn from its own
generator seeded with (seed, r), so the inputs of a run do not depend on how
many rounds it reaches.  Every round of a workload holds the same kinds of
job in the same numbers, and differs from the others only in the drawn
values: the work per round, the calls it makes into tfse and the share of
jobs that can fail are the same in every round and for every seed.

Each Job carries the argv of one `tfse` invocation (without --outdir), the
number of output rows the inputs ask for, and what the checks need to know.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-10            # --tol of every job that takes one
ML_ROWS = 32           # rows of every ml_table table
H_HISTORY = 2.5e-3     # history step of `tfse well --emit continuity`
CONTINUITY_ROWS = 24

# Long-time tables on which tfse.specfun.f_nu returns about 0 for a decay
# of about 1e-5 (ROADMAP item 2).  Fixed, so they fail in every round and
# for every seed until that fault is mended.
LONG_TIME = ((0.9, 2.0, "minus"), (0.9, 64.0, "plus"))   # (nu, sigma, sign)
LONG_TIME_GRID = (100.0, 1e4)


@dataclass
class Job:
    kind: str          # ml | well_probability | well_energy | free | free_high | continuity
    argv: list[str]
    rows: int
    params: dict = field(default_factory=dict)
    long_time: bool = False
    reference: object = None   # reference values, filled once by the checks


def _fmt(x: float) -> str:
    return repr(float(x))


def _grid(start: float, stop: float, count: int) -> str:
    return f"{_fmt(start)}:{_fmt(stop)}:{count}"


def _loguniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def ml_job(nu, sigma, sign, t_lo, t_hi, long_time=False) -> Job:
    argv = ["ml", "--nu", _fmt(nu), "--sigma", _fmt(sigma), "--sign", sign,
            "--t-grid", _grid(t_lo, t_hi, ML_ROWS), "--tol", _fmt(TOL)]
    return Job("ml", argv, ML_ROWS,
               dict(nu=nu, sigma=sigma, sign=-1 if sign == "minus" else 1,
                    times=np.linspace(t_lo, t_hi, ML_ROWS), tol=TOL),
               long_time=long_time)


def _well_job(emit, nu, n, a, t_lo, t_hi) -> Job:
    argv = ["well", "--nu", _fmt(nu), "--n", str(n), "--a", _fmt(a),
            "--emit", emit, "--t-grid", _grid(t_lo, t_hi, ML_ROWS),
            "--tol", _fmt(TOL)]
    sigma = (n * math.pi / a) ** 2 / (2.0 * 0.5)   # lambda_n, N_m = 0.5
    return Job(f"well_{emit}", argv, ML_ROWS,
               dict(nu=nu, sigma=sigma, sign=-1,
                    times=np.linspace(t_lo, t_hi, ML_ROWS), tol=TOL))


def ml_table_round(seed: int, r: int) -> list[Job]:
    """Eight seeded tables (ml on each sign, well probability and energy,
    two of each) and the fixed long-time tables."""
    rng = np.random.default_rng([seed, r])
    jobs = []
    for kind in ("ml_minus", "ml_plus", "well_probability", "well_energy") * 2:
        nu = float(rng.uniform(0.2, 1.0))
        sigma = _loguniform(rng, 0.1, 64.0)
        # Tables start at t >= 0.1: below it f_nu misses its tolerance at
        # scattered small-sigma points (README, "Left out").
        t_lo = 10.0 ** rng.uniform(-1.0, 0.0)
        t_hi = 10.0 ** rng.uniform(1.0, 2.0)
        if kind.startswith("ml"):
            jobs.append(ml_job(nu, sigma, kind[3:], t_lo, t_hi))
        else:
            n = int(rng.integers(1, 5))
            a = n * math.pi / math.sqrt(sigma)
            jobs.append(_well_job(kind[5:], nu, n, a, t_lo, t_hi))
    for nu, sigma, sign in LONG_TIME:
        jobs.append(ml_job(nu, sigma, sign, *LONG_TIME_GRID, long_time=True))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


FREE_NODES = 201
FREE_HALF_WIDTH = 8.0
FREE_X_POINTS = 2001


def _free_job(rng, nu: float, with_slope: bool = False) -> Job:
    high_order = nu > 1.0
    snapshots = 2 if high_order else 3   # keeps the two kinds close in cost
    center, width = float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.8, 1.5))
    lam = np.linspace(-FREE_HALF_WIDTH, FREE_HALF_WIDTH, FREE_NODES)
    # One period of the discrete inverse transform, so Parseval is exact.
    half_period = math.pi / float(lam[1] - lam[0])
    t_lo, t_hi = float(rng.uniform(0.5, 5.0)), float(rng.uniform(20.0, 50.0))
    argv = ["free", "--nu", _fmt(nu),
            f"--packet=gaussian:{_fmt(center)}:{_fmt(width)}",
            f"--lambda-grid={_grid(-FREE_HALF_WIDTH, FREE_HALF_WIDTH, FREE_NODES)}",
            f"--x-grid={_grid(-half_period, half_period, FREE_X_POINTS)}",
            "--t-grid", _grid(t_lo, t_hi, snapshots), "--tol", _fmt(TOL)]
    params = dict(nu=nu, packet=(center, width), packet1=None,
                  lam=lam, x=np.linspace(-half_period, half_period,
                                         FREE_X_POINTS),
                  times=np.linspace(t_lo, t_hi, snapshots), tol=TOL)
    if high_order:
        argv.append("--high-order")
        if with_slope:
            c1, w1 = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.8, 1.5))
            argv.append(f"--packet1=gaussian:{_fmt(c1)}:{_fmt(w1)}")
            params["packet1"] = (c1, w1)
    # Rows: the x rows of each snapshot and one probability row per snapshot.
    rows = snapshots * (FREE_X_POINTS + 1)
    return Job("free_high" if high_order else "free", argv, rows, params)


def _strata(rng, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of count equal slices of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + width * (k + float(rng.uniform())) for k in range(count)]


def free_packet_round(seed: int, r: int) -> list[Job]:
    """Four sub-unit packets, nu drawn from four slices of [0.25, 0.95], and
    one --high-order packet at nu in [1.05, 1.28] or [1.38, 1.95], away from
    the kernel root at 4/3; that one carries a nonzero initial slope on odd
    rounds."""
    rng = np.random.default_rng([seed, r])
    jobs = [_free_job(rng, nu) for nu in _strata(rng, 0.25, 0.95, 4)]
    # The high-order order walks through five slices of its range, one per
    # round, so that five rounds cover it whatever the seed.
    u = 0.16 * (r % 5 + float(rng.uniform()))
    nu_high = 1.05 + u if u < 0.23 else 1.38 + (u - 0.23)
    jobs.append(_free_job(rng, nu_high, with_slope=bool(r % 2)))
    return [jobs[i] for i in rng.permutation(len(jobs))]


# Five continuity jobs per round, from short and cheap to long and costly:
# (n, nu slice, t_max).  The median job is then the middle slot and the
# 90th percentile the last one, not a boundary between two kinds.  t_max is
# fixed, a whole number of history steps, so the calls a round makes do not
# depend on the seed.  The nu ranges are where the continuity balance holds
# today with a margin of 3 or more under its bound (README, "Left out").
CONTINUITY_SLOTS = (
    (1, (0.30, 0.46), 2.0),
    (1, (0.46, 0.63), 2.75),
    (2, (0.70, 0.85), 3.5),
    (1, (0.63, 0.79), 4.25),
    (1, (0.79, 0.95), 5.0),
)


def well_history_round(seed: int, r: int) -> list[Job]:
    """One continuity job per slot of CONTINUITY_SLOTS."""
    rng = np.random.default_rng([seed, r])
    jobs = []
    for n, (nu_lo, nu_hi), t_max in CONTINUITY_SLOTS:
        nu = float(rng.uniform(nu_lo, nu_hi))
        t_lo = float(rng.uniform(0.3, 1.0))
        argv = ["well", "--nu", _fmt(nu), "--n", str(n), "--emit",
                "continuity", "--t-grid", _grid(t_lo, t_max, CONTINUITY_ROWS)]
        jobs.append(Job("continuity", argv, CONTINUITY_ROWS,
                        dict(nu=nu, sigma=float(n * n), sign=-1,
                             times=np.linspace(t_lo, t_max, CONTINUITY_ROWS),
                             t_max=t_max)))
    return [jobs[i] for i in rng.permutation(len(jobs))]


WORKLOADS = {
    "ml_table": ml_table_round,
    "free_packet": free_packet_round,
    "well_history": well_history_round,
}

# Rounds of the traced run: a fixed count, so its call counts repeat exactly.
TRACE_ROUNDS = {"ml_table": 12, "free_packet": 2, "well_history": 2}
