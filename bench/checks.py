"""Per-job checks of tfse's output files.

Every value is compared with bench.reference (which shares no code with
tfse) or with an identity the method must satisfy; nothing is compared with
a stored copy of earlier output.  Allowances, with tol the job's --tol:

* decay kernel, and anything built on it: FAIL_FACTOR * tol absolute for a
  failed job.  tfse.specfun.f_nu misses its tolerance at scattered points
  (37 and 77 * tol seen at t > 0.1), which would make the number of failed
  jobs depend on the seed; values beyond MISS_FACTOR * tol that stay within
  FAIL_FACTOR * tol are reported as tolerance misses instead.  The decay
  collapse of the long-time tables is 7e4 * tol and more.
* oscillation: the conditioning of its phase m = sigma**(1/nu) * t, which
  float64 cannot form better than eps * m * (1 + |ln sigma|) / nu
  (reference.phase_allowance).  At nu = 0.2, sigma = 64, t = 100 that is
  6e-4, and it is the only allowance on the oscillation column.
* identities (total = oscillation - decay, psi = psi_s + psi_d,
  prob = |psi|**2, discrete Parseval): rounding only.
* continuity: |dP/dt - integral S| <= 0.02 * max|dP/dt|, the bound of
  `tfse verify`; dP/dt within the same 0.02 of 2 Re(conj(A) dA/dt) from the
  reference, and within rounding-level noise of the same finite difference
  taken of reference values.

check(job, outdir) returns (problems, misses); no problems is a pass.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import reference
import workloads

FAIL_FACTOR = 1000.0
MISS_FACTOR = 10.0
EPS = 2.3e-16
CONTINUITY_BOUND = 0.02
CONTINUITY_TOL = 1e-9   # tfse well --emit continuity evaluates at 1e-9


class _Problems(list):
    def __init__(self, factor: float):
        super().__init__()
        self.factor = factor   # allowance on quadrature-based values, in tol

    def compare(self, what, got, want, bound):
        """Record a problem where |got - want| > bound (elementwise)."""
        got, want = np.asarray(got), np.asarray(want)
        gap = np.abs(got - want)
        bad = ~(gap <= bound)
        if np.any(bad):
            i = int(np.argmax(np.where(bad, gap / np.maximum(bound, 1e-300),
                                       0.0)))
            self.append(f"{what}: {int(bad.sum())} of {bad.size} off, worst "
                        f"at {i}: got {got.flat[i]:.6g} want {want.flat[i]:.6g}"
                        f" (bound {np.broadcast_to(bound, gap.shape).flat[i]:.3g})")


def read_table(path: Path) -> tuple[list[str], np.ndarray, list[str]]:
    """(header, rows, comments) of one tfse CSV."""
    lines = path.read_text().splitlines()
    comments = [ln[2:] for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    data = np.loadtxt(io.StringIO("\n".join(body[1:])), delimiter=",",
                      ndmin=2)
    return body[0].split(","), data, comments


def _comment_value(comments, key) -> float:
    for line in comments:
        for part in line.split():
            if part.startswith(key + "="):
                return float(part.split("=", 1)[1])
    raise KeyError(key)


def _check_manifest(outdir: Path, command: str, problems: _Problems):
    manifest = json.loads((outdir / f"{command}_manifest.json").read_text())
    files = sorted(p.name for p in outdir.iterdir()
                   if p.name != f"{command}_manifest.json")
    if sorted(manifest["outputs"]) != files:
        problems.append(f"manifest lists {sorted(manifest['outputs'])}, "
                        f"directory holds {files}")
        return
    for name, digest in manifest["outputs"].items():
        if hashlib.sha256((outdir / name).read_bytes()).hexdigest() != digest:
            problems.append(f"manifest sha256 of {name} does not match")


def _table(outdir, name, header, rows, times, problems):
    got_header, data, comments = read_table(outdir / name)
    if got_header != header or data.shape != (rows, len(header)):
        problems.append(f"{name}: header {got_header}, shape {data.shape}")
        return None, comments
    problems.compare(f"{name} t", data[:, 0], times, 1e-15 * np.abs(times))
    return data, comments


# ---------------------------------------------------------------------------
# ml_table

def row_refs(job, evaluate):
    """evaluate(nu, sigma, t, sign) at each t of the job's grid, as an
    array; computed once per job."""
    if job.reference is None:
        p = job.params
        job.reference = np.array([evaluate(p["nu"], p["sigma"], float(t),
                                           p["sign"]) for t in p["times"]])
    return job.reference


def _phase(p, times):
    return np.array([reference.phase_allowance(p["nu"], p["sigma"], float(t))
                     for t in times]) / p["nu"]


def check_ml(job, outdir: Path, problems: _Problems):
    p = job.params
    header = ["t", "re_total", "im_total", "re_osc", "im_osc", "re_decay",
              "im_decay"]
    data, _ = _table(outdir, "ml.csv", header, job.rows, p["times"], problems)
    if data is None:
        return
    total = data[:, 1] + 1j * data[:, 2]
    osc = data[:, 3] + 1j * data[:, 4]
    decay = data[:, 5] + 1j * data[:, 6]
    ref = row_refs(job, reference.decomposition)
    quad = problems.factor * p["tol"]
    phase = _phase(p, p["times"]) + 4 * EPS / p["nu"]
    problems.compare("decay vs reference", decay, ref[:, 1], quad)
    problems.compare("oscillation vs reference", osc, ref[:, 0], phase)
    problems.compare("total vs reference", total, ref[:, 2], quad + phase)
    problems.compare("total = oscillation - decay", total, osc - decay,
                     4 * EPS * (np.abs(osc) + np.abs(decay)))


def check_well_probability(job, outdir: Path, problems: _Problems):
    p = job.params
    data, comments = _table(outdir, "well_probability.csv",
                            ["t", "probability"], job.rows, p["times"],
                            problems)
    if data is None:
        return
    amp = row_refs(job, reference.decomposition)[:, 2]
    err = problems.factor * p["tol"] + _phase(p, p["times"])
    problems.compare("probability vs reference", data[:, 1],
                     np.abs(amp) ** 2, 2 * np.abs(amp) * err + err ** 2)
    problems.compare("probability limit", _comment_value(comments, "limit"),
                     1.0 / p["nu"] ** 2, 1e-11 / p["nu"] ** 2)


def check_well_energy(job, outdir: Path, problems: _Problems):
    p = job.params
    data, comments = _table(outdir, "well_energy.csv", ["t", "re_e", "im_e"],
                            job.rows, p["times"], problems)
    if data is None:
        return
    amp, rate = row_refs(job, reference.amplitude_and_rate).T
    root = p["sigma"] ** (1.0 / p["nu"])
    phase = _phase(p, p["times"])
    quad = problems.factor * p["tol"]
    err_a = quad + phase
    # dA/dt = -i root osc - dF/dt: the phase error scaled by root, and the
    # kernel allowance on dF/dt taken as quad scaled by (1 + root).
    err_rate = root * phase + quad * (1.0 + root)
    bound = np.abs(rate) * err_a + np.abs(amp) * err_rate + err_a * err_rate
    problems.compare("energy vs reference", data[:, 1] + 1j * data[:, 2],
                     1j * np.conj(amp) * rate, bound)
    problems.compare("energy limit", _comment_value(comments, "limit"),
                     root / p["nu"] ** 2, 1e-11 * root / p["nu"] ** 2)


# ---------------------------------------------------------------------------
# free_packet

def _gaussian(lam, center, width):
    return ((4.0 * math.pi * width ** 2) ** 0.25
            * np.exp(-0.5 * width ** 2 * lam ** 2) * np.exp(-1j * lam * center))


def _free_refs(job):
    """Per snapshot: spectral amplitudes (total, oscillation, decay part),
    the phase allowance per node and the weight |a0| (+ |a1| t) of each
    node's error, from the reference."""
    if job.reference is not None:
        return job.reference
    p = job.params
    nu, lam = p["nu"], p["lam"]
    sigma = lam ** 2 / (2.0 * 0.5)
    a0 = _gaussian(lam, *p["packet"])
    a1 = (_gaussian(lam, *p["packet1"]) if p["packet1"]
          else np.zeros_like(a0))
    snaps = []
    for t in p["times"]:
        t = float(t)
        cache = {}
        for s in np.unique(sigma):
            s = float(s)
            if nu > 1.0:
                cache[s] = reference.two_ic_coefficients(nu, s, t)
            elif s == 0.0:
                # tfse's convention: sigma = 0 bypasses the split, E(0) = 1.
                cache[s] = (1.0, 0.0, 1.0)
            else:
                cache[s] = reference.decomposition(nu, s, t, -1)
        vals = np.array([cache[float(s)] for s in sigma])
        phase = np.array([reference.phase_allowance(nu, float(s), t)
                          if s > 0 else 0.0 for s in sigma]) / nu
        if nu > 1.0:
            snaps.append(dict(total=a0 * vals[:, 0] + a1 * vals[:, 1],
                              phase=phase, weight=np.abs(a0)
                              + np.abs(a1) * max(t, 1.0)))
        else:
            snaps.append(dict(total=a0 * vals[:, 2], osc=a0 * vals[:, 0],
                              decay=-a0 * vals[:, 1], phase=phase,
                              weight=np.abs(a0)))
    job.reference = dict(snaps=snaps, phase_matrix=np.exp(
        1j * np.outer(p["x"], lam)))
    return job.reference


def check_free(job, outdir: Path, problems: _Problems):
    p = job.params
    lam, x = p["lam"], p["x"]
    scale = float(lam[1] - lam[0]) / (2.0 * math.pi)
    refs = _free_refs(job)
    phase_matrix = refs["phase_matrix"]
    prob_data, _ = _table(outdir, "free_probability.csv", ["t", "probability"],
                          len(p["times"]), p["times"], problems)
    for k, snap in enumerate(refs["snaps"]):
        s_data, _ = _table(outdir, f"free_snapshot_t{k:03d}.csv",
                           ["x", "re", "im", "prob"], len(x), x, problems)
        d_data, _ = _table(outdir, f"free_split_t{k:03d}.csv",
                           ["x", "re_s", "im_s", "re_d", "im_d"], len(x), x,
                           problems)
        if s_data is None or d_data is None:
            continue
        psi = s_data[:, 1] + 1j * s_data[:, 2]
        psi_s = d_data[:, 1] + 1j * d_data[:, 2]
        psi_d = d_data[:, 3] + 1j * d_data[:, 4]
        tag = f"snapshot {k}"
        quad, weight = problems.factor * p["tol"], snap["weight"]
        err = (quad + snap["phase"]) * weight
        problems.compare(f"{tag} prob = |psi|^2", s_data[:, 3],
                         np.abs(psi) ** 2, 8 * EPS * np.abs(psi) ** 2 + 1e-300)
        problems.compare(f"{tag} psi = psi_s + psi_d", psi, psi_s + psi_d,
                         4 * EPS * (np.abs(psi_s) + np.abs(psi_d)))
        rounding = 1e-13 * scale * np.sum(np.abs(snap["total"]))
        problems.compare(f"{tag} psi vs reference", psi,
                         scale * (phase_matrix @ snap["total"]),
                         scale * np.sum(err) + rounding)
        if "osc" in snap:
            problems.compare(f"{tag} psi_s vs reference", psi_s,
                             scale * (phase_matrix @ snap["osc"]),
                             scale * np.sum(snap["phase"] * weight)
                             + rounding)
            problems.compare(f"{tag} psi_d vs reference", psi_d,
                             scale * (phase_matrix @ snap["decay"]),
                             scale * quad * np.sum(weight) + rounding)
        else:
            problems.compare(f"{tag} psi_d = 0 without a split", psi_d, 0.0,
                             0.0)
        if prob_data is not None:
            # The x-grid spans one period of the discrete inverse
            # transform, so the trapezoid sum of |psi|^2 equals the
            # spectral one exactly (Parseval), up to rounding.
            prob = prob_data[k, 1]
            problems.compare(f"{tag} Parseval", prob,
                             np.trapezoid(np.abs(psi) ** 2, x), 1e-11 * prob)
            problems.compare(f"{tag} probability vs reference", prob,
                             np.trapezoid(np.abs(snap["total"]) ** 2, lam)
                             / (2 * math.pi),
                             scale * 2 * np.sum(np.abs(snap["total"]) * err)
                             + 1e-12 * prob)


# ---------------------------------------------------------------------------
# well_history

def check_continuity(job, outdir: Path, problems: _Problems):
    p = job.params
    data, _ = _table(outdir, "well_continuity.csv",
                     ["t", "dpdt", "integrated_source"], job.rows,
                     p["times"], problems)
    if data is None:
        return
    dpdt, int_s = data[:, 1], data[:, 2]
    scale = float(np.max(np.abs(dpdt)))
    problems.compare("continuity balance", dpdt, int_s,
                     CONTINUITY_BOUND * scale)
    # tfse samples its history on linspace(0, t_max, n) and takes
    # np.gradient with spacing h; replicate both on reference values.
    h = workloads.H_HISTORY
    n = int(round(p["t_max"] / h)) + 1
    grid = np.linspace(0.0, p["t_max"], n)
    nu, sigma = p["nu"], p["sigma"]
    if job.reference is None:
        rows = []
        for ts in p["times"]:
            k = int(round(float(ts) / h))
            nodes = (k - 2, k - 1, k) if k == n - 1 else (k - 1, k + 1)
            amps = [reference.decomposition(nu, sigma, float(grid[i]), -1)[2]
                    for i in nodes]
            a, rate = reference.amplitude_and_rate(nu, sigma, float(grid[k]),
                                                   -1)
            probs = [abs(v) ** 2 for v in amps]
            if k == n - 1:
                fd = (probs[0] - 4 * probs[1] + 3 * probs[2]) / (2 * h)
                weight = 8.0
            else:
                fd = (probs[1] - probs[0]) / (2 * h)
                weight = 2.0
            rows.append((fd, weight, max(abs(v) for v in amps),
                         reference.phase_allowance(nu, sigma, float(grid[k]))
                         / nu, 2 * (np.conj(a) * rate).real))
        job.reference = np.array(rows)
    fd, weight, amp, phase, analytic = job.reference.T
    # Rounding-level noise of the difference: weight * |dP| / (2h), with
    # |dP| <= 2|A| e + e**2 for an error e in A.
    err_a = problems.factor * CONTINUITY_TOL + phase
    noise = weight * (2 * amp * err_a + err_a ** 2) / (2 * h)
    problems.compare("dP/dt vs finite difference of reference", dpdt, fd,
                     noise)
    problems.compare("dP/dt vs 2 Re(conj(A) dA/dt) of reference", dpdt,
                     analytic, CONTINUITY_BOUND * np.max(np.abs(analytic)))


_CHECKS = {
    "ml": ("ml", check_ml),
    "well_probability": ("well", check_well_probability),
    "well_energy": ("well", check_well_energy),
    "free": ("free", check_free),
    "free_high": ("free", check_free),
    "continuity": ("well", check_continuity),
}


def _run(job, outdir: Path, factor: float) -> list[str]:
    problems = _Problems(factor)
    command, fn = _CHECKS[job.kind]
    try:
        _check_manifest(outdir, command, problems)
        fn(job, outdir, problems)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return list(problems)


def check(job, outdir: Path) -> tuple[list[str], list[str]]:
    """(problems, misses) of one job's output directory.

    A job with problems failed.  Misses are values of a passing job that
    are off by more than MISS_FACTOR * tol."""
    problems = _run(job, outdir, FAIL_FACTOR)
    return problems, ([] if problems else _run(job, outdir, MISS_FACTOR))
