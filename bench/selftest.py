"""Self-test of the reference module and of the checks.

* The power series (at a precision that covers its cancellation) and the
  large-argument expansion agree where both apply, m = |z|**(1/nu) in
  [30, 36], for orders on both sides of 1 and every beta the checks use.
* An ml table written from reference values passes the checks; the same
  table with its decay column zeroed and total = oscillation, which is what
  the decay-kernel collapse at long times looks like, fails them.

Each worker runs it after its checks; `python3 bench/selftest.py` runs it
alone and exits 1 on a problem.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

import checks
import reference
import workloads

OVERLAP_BOUND = 1e-12   # expansion error at m = 30 is about 2e-14


def _overlap_problems() -> list[str]:
    problems = []
    cases = [(nu, beta, sign) for nu in (0.3, 0.7, 0.95)
             for beta in (1.0, nu) for sign in (-1, 1)]
    cases += [(nu, beta, 1) for nu in (1.25, 1.6, 1.9) for beta in (1.0, 2.0)]
    for nu, beta, sign in cases:
        for m in (30.0, 36.0):
            sigma = 1.7
            t = m / sigma ** (1.0 / nu)
            dps = 17 + math.ceil(m / math.log(10.0)) + 8
            with mp.workdps(reference.PHASE_DPS):
                z = reference.ray_point(nu, sigma, t, sign)
                m_exact = mp.mpf(sigma) ** (1 / mp.mpf(nu)) * mp.mpf(t)
                gap = abs(complex(reference.series(nu, beta, z, dps)
                                  - reference.expansion(nu, beta, m_exact,
                                                        sign)))
            if not gap <= OVERLAP_BOUND:
                problems.append(f"series and expansion differ by {gap:.3g} "
                                f"at nu={nu} beta={beta} sign={sign} m={m}")
    return problems


def _write_ml(outdir: Path, job, total, osc, decay):
    outdir.mkdir(parents=True)
    rows = zip(job.params["times"], total.real, total.imag, osc.real,
               osc.imag, decay.real, decay.imag)
    text = "t,re_total,im_total,re_osc,im_osc,re_decay,im_decay\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    (outdir / "ml.csv").write_text("# reference table\n" + text)
    digest = hashlib.sha256((outdir / "ml.csv").read_bytes()).hexdigest()
    (outdir / "ml_manifest.json").write_text(
        json.dumps({"outputs": {"ml.csv": digest}}))


def _checker_problems(tmp: Path) -> list[str]:
    job = workloads.ml_job(0.6, 3.0, "minus", 0.1, 20.0)
    osc, decay, total = checks.row_refs(job, reference.decomposition).T
    problems = []
    _write_ml(tmp / "exact", job, total, osc, decay)
    found, misses = checks.check(job, tmp / "exact")
    if found or misses:
        problems.append(f"reference table fails the checks: {found + misses}")
    _write_ml(tmp / "collapsed", job, osc, osc, np.zeros_like(decay))
    if not checks.check(job, tmp / "collapsed")[0]:
        problems.append("a table with its decay zeroed passes the checks")
    return problems


def run() -> list[str]:
    """Problems found; an empty list when the self-test passes."""
    tmp = Path(__file__).resolve().parent / "tmp" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        return _overlap_problems() + _checker_problems(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    found = run()
    for line in found:
        print(line)
    print("selftest", "FAILED" if found else "passed")
    sys.exit(1 if found else 0)
