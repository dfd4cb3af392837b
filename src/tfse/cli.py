"""Command-line driver: evaluations, simulations and verification sweeps.

Subcommands: `ml` (Mittag-Leffler tables), `well` (infinite-well mode
diagnostics), `free` (free-particle snapshots and probability series) and
`verify` (the named checks of `tfse.verify.SUITES`).  Every output file of
`ml`, `well` and `free` is a commented CSV with a single header row; a JSON
manifest carrying the full parameter set, the tool version, the tolerances
and sha256 checksums is written next to the outputs, so a run can be
reproduced and diffed.  `verify` takes only `--suite`, writes no files and
prints one line per check: its metric, bound and wall time in seconds.

A `--config key=value` file may seed any long flag of `ml`, `well` and
`free`; explicit flags override.
Each table's grid is one array call.  The evaluators compute each distinct
point once, in sorted order, and run one branch-cut quadrature per frequency
up to rounding (64 eps relative; the mirrored nodes +-lambda of `free` share
theirs), so a rerun with the same flags writes byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 usage error or invalid
value (a negative sigma, say), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, dynamics
from .errors import DenominatorSingularity, TfseError
from .specfun import (
    DEFAULT_TOL,
    FractionalOrder,
    Regime,
    Sign,
    ml_complex_decomposed,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# small plumbing helpers

def _parse_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:count' into a linspace; count=1 means [start]."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    if count == 1:
        return np.array([start])
    return np.linspace(start, stop, count)


def _parse_packet(text: str):
    """Parse 'gaussian:center:width' or 'zero'."""
    if text == "zero":
        return ("zero",)
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "gaussian":
        raise argparse.ArgumentTypeError(
            f"packet must be gaussian:center:width or zero, got {text!r}")
    try:
        return ("gaussian", float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _write_csv(path: Path, header: list[str], columns, comments=()) -> None:
    """One row per index of the equal-length columns, each value as %.17g
    (the text of f"{v:.17g}"), formatted by one % over the whole table."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        fh.write(row * len(table) % tuple(table.ravel().tolist()))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(outdir: Path, command: str, params: dict,
                    tolerances: dict, outputs: list[Path]) -> Path:
    manifest = {
        "command": command,
        "parameters": params,
        "version": __version__,
        "tolerances": tolerances,
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    path = outdir / f"{command}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _expand_config(argv: list[str]) -> list[str]:
    """Splice config-file pairs in as flags, before the explicit ones."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise SystemExit(EXIT_USAGE)
    pairs = []
    for raw in Path(argv[i + 1]).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            print(f"error: bad config line {raw!r}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        key, value = (s.strip() for s in line.split("=", 1))
        pairs.append((key.replace("_", "-"), value))
    rest = argv[:i] + argv[i + 2:]
    flags = [tok for k, v in pairs for tok in (f"--{k}", v)]
    return rest[:1] + flags + rest[1:]


# ---------------------------------------------------------------------------
# subcommands

def cmd_ml(args) -> int:
    order = FractionalOrder(args.nu)
    sign = Sign.PLUS_I if args.sign == "plus" else Sign.MINUS_I
    d = ml_complex_decomposed(args.sigma, sign, order, args.t_grid,
                              tol=args.tol)
    columns = [args.t_grid, d.total.real, d.total.imag, d.oscillatory.real,
               d.oscillatory.imag, d.decay.real, d.decay.imag]
    header = ["t", "re_total", "im_total", "re_osc", "im_osc",
              "re_decay", "im_decay"]
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    if args.format == "json":
        path = outdir / "ml.json"
        payload = {"columns": header,
                   "rows": np.column_stack(columns).tolist()}
        path.write_text(json.dumps(payload, indent=2) + "\n")
    else:
        path = outdir / "ml.csv"
        _write_csv(path, header, columns,
                   comments=[f"nu={args.nu} sigma={args.sigma} "
                             f"sign={args.sign} tol={args.tol:g}"])
    outputs.append(path)
    _write_manifest(outdir, "ml", _params(args), {"tol": args.tol}, outputs)
    return EXIT_OK


def cmd_well(args) -> int:
    order = FractionalOrder(args.nu)
    if order.regime is not Regime.SUB_UNIT:
        raise TfseError("well evolution covers orders in (0, 1]")
    cfg = dynamics.RunConfig(order, n_m=args.nm)
    mode = dynamics.well_mode(args.n, args.a, cfg)
    times = args.t_grid
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    meta = (f"nu={args.nu} n={args.n} a={args.a} nm={args.nm} "
            f"lambda_n={mode.lambda_n:.12g}")

    if args.emit == "amplitude":
        a = dynamics.well_amplitude(mode, cfg, times, args.tol)
        path = outdir / "well_amplitude.csv"
        _write_csv(path, ["t", "re_a", "im_a"], [times, a.real, a.imag],
                   comments=[meta])
        outputs.append(path)
    elif args.emit == "probability":
        a = dynamics.well_amplitude(mode, cfg, times, args.tol)
        path = outdir / "well_probability.csv"
        _write_csv(path, ["t", "probability"], [times, np.abs(a) ** 2],
                   comments=[meta, f"limit={1.0 / args.nu ** 2:.12g}"])
        outputs.append(path)
    elif args.emit == "energy":
        limit = dynamics.energy_level_limit(mode, cfg)
        e = dynamics.energy_level(mode, cfg, times, args.tol)
        path = outdir / "well_energy.csv"
        _write_csv(path, ["t", "re_e", "im_e"], [times, e.real, e.imag],
                   comments=[meta, f"limit={limit:.12g}"])
        outputs.append(path)
    else:  # continuity
        dpdt, int_s = dynamics.well_continuity_series(mode, cfg, times,
                                                      tol=args.tol)
        path = outdir / "well_continuity.csv"
        _write_csv(path, ["t", "dpdt", "integrated_source"],
                   [times, dpdt, int_s], comments=[meta])
        outputs.append(path)

    _write_manifest(outdir, "well", _params(args), {"tol": args.tol},
                    outputs)
    return EXIT_OK


def cmd_free(args) -> int:
    order = FractionalOrder(args.nu)
    cfg = dynamics.RunConfig(order, n_m=args.nm)
    lam = args.lambda_grid
    packet0 = _build_packet(args.packet, lam)
    if packet0 is None:
        raise TfseError("initial packet must not be zero")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    meta = f"nu={args.nu} nm={args.nm} packet={args.packet_raw}"
    positions = dynamics.field_positions(packet0, args.x_grid)

    if args.high_order:
        if order.regime is not Regime.SUPER_UNIT:
            raise TfseError("--high-order needs an order in (1, 2]")
        packet1 = _build_packet(args.packet1, lam)
        if packet1 is None:
            packet1 = dynamics.SpectralPacket(lam, np.zeros_like(lam,
                                                                 dtype=complex))
        evolve = lambda t: dynamics.free_spectrum_high_order(
            packet0, packet1, cfg, float(t), args.tol)
    else:
        if order.regime is not Regime.SUB_UNIT:
            raise TfseError("orders above 1 need --high-order")
        evolve = lambda t: dynamics.free_spectrum_evolve(
            packet0, cfg, float(t), args.tol)

    packets = [evolve(t) for t in args.t_grid]
    x, fields = dynamics.free_field(packets, positions)
    for k, (t, (psi, psi_s, psi_d)) in enumerate(zip(args.t_grid, fields)):
        snap = outdir / f"free_snapshot_t{k:03d}.csv"
        _write_csv(snap, ["x", "re", "im", "prob"],
                   [x, psi.real, psi.imag, np.abs(psi) ** 2],
                   comments=[meta, f"t={float(t):.12g}"])
        split = outdir / f"free_split_t{k:03d}.csv"
        _write_csv(split, ["x", "re_s", "im_s", "re_d", "im_d"],
                   [x, psi_s.real, psi_s.imag, psi_d.real, psi_d.imag],
                   comments=[meta, f"t={float(t):.12g}"])
        outputs.extend([snap, split])
    # Two-IC runs have no limit: with a slope packet the zero-frequency
    # node grows like t.
    limits = [] if args.high_order else [
        f"limit={dynamics.spectral_probability_limit(packet0, cfg):.12g}",
        f"continuum_limit={1.0 / args.nu ** 2:.12g}"]
    prob_path = outdir / "free_probability.csv"
    _write_csv(prob_path, ["t", "probability"],
               [args.t_grid, [dynamics.spectral_probability(pk)
                              for pk in packets]],
               comments=[meta, *limits])
    outputs.append(prob_path)
    _write_manifest(outdir, "free", _params(args), {"tol": args.tol},
                    outputs)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify   # the checks load mpmath and scipy.signal

    if args.suite != "all" and args.suite not in verify.SUITES:
        print(f"error: unknown suite {args.suite!r}; choose from "
              f"{', '.join((*verify.SUITES, 'all'))}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    results = verify.run_suite(args.suite)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  metric={r.metric:.3e}  "
              f"bound={r.bound:.3e}  seconds={r.seconds:.2f}")
        ok = ok and r.passed
    print(f"{'all checks passed' if ok else 'some checks FAILED'} "
          f"({sum(r.passed for r in results)}/{len(results)})")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# argument plumbing

def _params(args) -> dict:
    out = {}
    for key, value in vars(args).items():
        if key in ("func",):
            continue
        if isinstance(value, np.ndarray):
            out[key] = [float(v) for v in value]
        elif isinstance(value, tuple):
            out[key] = list(value)
        else:
            out[key] = value
    return out


def _build_packet(parsed, lam):
    if parsed is None or parsed[0] == "zero":
        return None
    _, center, width = parsed
    if width <= 0:
        raise TfseError("packet width must be positive")
    return dynamics.gaussian_packet(lam, center=center, width=width)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfse",
        description="Caputo-order quantum evolution: tables, runs, checks.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help=argparse.SUPPRESS)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="evaluation tolerance (default %(default)g)")
    common.add_argument("--outdir", default=".",
                        help="directory for output files")

    p_ml = sub.add_parser("ml", parents=[common],
                          help="tabulate the Mittag-Leffler decomposition")
    p_ml.add_argument("--nu", type=float, required=True)
    p_ml.add_argument("--sigma", type=float, required=True)
    p_ml.add_argument("--sign", choices=("plus", "minus"), default="minus")
    p_ml.add_argument("--t-grid", type=_parse_grid, required=True,
                      metavar="START:STOP:COUNT")
    p_ml.add_argument("--format", choices=("csv", "json"), default="csv")
    p_ml.set_defaults(func=cmd_ml)

    p_well = sub.add_parser("well", parents=[common],
                            help="infinite-well mode diagnostics")
    p_well.add_argument("--nu", type=float, required=True)
    p_well.add_argument("--n", type=int, default=1)
    p_well.add_argument("--a", type=float, default=math.pi)
    p_well.add_argument("--nm", type=float, default=0.5)
    p_well.add_argument("--t-grid", type=_parse_grid, required=True,
                        metavar="START:STOP:COUNT")
    p_well.add_argument("--emit", required=True,
                        choices=("amplitude", "probability", "energy",
                                 "continuity"))
    p_well.set_defaults(func=cmd_well)

    p_free = sub.add_parser("free", parents=[common],
                            help="free-particle snapshots and probability")
    p_free.add_argument("--nu", type=float, required=True)
    p_free.add_argument("--nm", type=float, default=0.5)
    p_free.add_argument("--packet", type=_parse_packet,
                        default=_parse_packet("gaussian:0:1"),
                        metavar="gaussian:CENTER:WIDTH")
    p_free.add_argument("--packet1", type=_parse_packet,
                        default=("zero",), metavar="gaussian:CENTER:WIDTH",
                        help="initial slope packet for --high-order")
    p_free.add_argument("--lambda-grid", type=_parse_grid,
                        default=_parse_grid("-8:8:161"),
                        metavar="START:STOP:COUNT")
    p_free.add_argument("--x-grid", type=_parse_grid, default=None,
                        metavar="START:STOP:COUNT")
    p_free.add_argument("--t-grid", type=_parse_grid, required=True,
                        metavar="START:STOP:COUNT")
    p_free.add_argument("--high-order", action="store_true")
    p_free.set_defaults(func=cmd_free)

    p_verify = sub.add_parser("verify", help="run the named checks")
    p_verify.add_argument("--suite", default="all",
                          help="a suite of tfse.verify.SUITES, or all")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_config(argv)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser()
    args = parser.parse_args(argv)
    if "packet" in vars(args):
        args.packet_raw = ":".join(str(p) for p in args.packet)
    try:
        return args.func(args)
    except DenominatorSingularity as exc:
        hint = ("orders below asin(0.05)/(pi/2) = 0.0318 put every ray root "
                "within the guard margin of the cut; raise --nu above 0.0318"
                if vars(args).get("nu", 2.0) <= 1.0 else
                "orders near 4/3 put a kernel root on the integration ray; "
                "nudge --nu away from 4/3")
        print(f"numerical failure: {exc}\nhint: {hint}.", file=sys.stderr)
        return EXIT_NUMERICAL
    except TfseError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
