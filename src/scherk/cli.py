"""Command-line surface: per-point checks, domain sweeps, certificate and
appendix-experiment runners, with machine-readable output.

Commands
    check    one (A, B) or (p, q) pair: scalar zero, sharp margin, both
             curvature routes, band test; JSON on stdout
    zero     full zero-point record for one pair; JSON on stdout
    sweep    grid x grid classification over (A, B) or (p, q); CSV file
    certify  rebuild and verify the two positivity certificates
    odd      Monte-Carlo and extremal runs for the first-coefficient bound
    logsub   finite-difference checks of the two log-Laplacian identities

Exit codes: 0 ok, 1 malformed input, 2 not admissible, 3 solver failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import bernstein, harmonic, oddmap, weierstrass
from .errors import (CertificateMismatch, DomainError, NoSignChange,
                     NonConvergence, NotAdmissible)
from .params import ScherkParams, admissible_interval, from_ab, from_angles
from .scalar import solve_zero

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NOT_ADMISSIBLE = 2
EXIT_SOLVER_FAILURE = 3
EXIT_CHECK_FAILED = 4

# Largest |wk_scalar - wk_geometric| that `check` accepts as route agreement.
ROUTE_GAP_BOUND = 1e-8

CSV_HEADER = ("p,q,A,B,admissible,U,S,margin,"
              "wk_scalar,wk_geometric,route_gap,status")


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else format(x, ".17g")


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


@dataclass
class SweepRow:
    p: float
    q: float
    A: float
    B: float
    admissible: bool
    U: Optional[float]
    S: Optional[float]
    margin: Optional[float]
    wk_scalar: Optional[float]
    wk_geometric: Optional[float]
    route_gap: Optional[float]
    status: str

    def csv(self) -> str:
        return ",".join([
            _fmt(self.p), _fmt(self.q), _fmt(self.A), _fmt(self.B),
            "true" if self.admissible else "false",
            _fmt(self.U), _fmt(self.S), _fmt(self.margin),
            _fmt(self.wk_scalar), _fmt(self.wk_geometric),
            _fmt(self.route_gap), self.status,
        ])


def evaluate_pair(params: ScherkParams, tol: float = 1e-12) -> SweepRow:
    """One full pipeline evaluation, errors folded into the row status."""
    base = dict(p=params.p, q=params.q, A=params.A, B=params.B)
    interval = admissible_interval(params)
    if not interval.nonempty:
        return SweepRow(**base, admissible=False, U=None, S=None, margin=None,
                        wk_scalar=None, wk_geometric=None, route_gap=None,
                        status="not_admissible")
    try:
        zero = solve_zero(params, tol)
    except NoSignChange:
        return SweepRow(**base, admissible=True, U=None, S=None, margin=None,
                        wk_scalar=None, wk_geometric=None, route_gap=None,
                        status="no_sign_change")
    margin = zero.S - math.sqrt(2.0 * (1.0 + params.A * params.B))
    wks = weierstrass.wk_scalar(params, zero.S).value
    try:
        sol = harmonic.solve_zero_point(params, zero, tol)
    except NonConvergence:
        return SweepRow(**base, admissible=True, U=zero.U, S=zero.S,
                        margin=margin, wk_scalar=wks, wk_geometric=None,
                        route_gap=None, status="non_convergence")
    return SweepRow(**base, admissible=True, U=zero.U, S=zero.S,
                    margin=margin, wk_scalar=wks, wk_geometric=sol.WK,
                    route_gap=abs(wks - sol.WK), status="ok")


def _params_from_args(args) -> ScherkParams:
    has_ab = args.A is not None or args.B is not None
    has_pq = getattr(args, "p", None) is not None or getattr(args, "q", None) is not None
    if has_ab and has_pq:
        raise DomainError("give either --A/--B or --p/--q, not both")
    if has_pq:
        if args.p is None or args.q is None:
            raise DomainError("both --p and --q are required")
        return from_angles(args.p, args.q)
    if args.A is None or args.B is None:
        raise DomainError("both --A and --B are required")
    return from_ab(args.A, args.B)


def cmd_check(args) -> int:
    try:
        params = _params_from_args(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    interval = admissible_interval(params)
    record = {
        "A": params.A, "B": params.B, "p": params.p, "q": params.q,
        "alpha": params.alpha, "L": interval.L, "R": interval.R,
        "B0": interval.B0, "admissible": interval.nonempty,
    }
    if not interval.nonempty:
        record["status"] = "not_admissible"
        _emit_json(record)
        return EXIT_NOT_ADMISSIBLE
    try:
        zero = solve_zero(params, args.tol)
    except NoSignChange as exc:
        record["status"] = "no_sign_change"
        record["detail"] = str(exc)
        _emit_json(record)
        return EXIT_SOLVER_FAILURE

    sigma = math.sqrt(2.0 * (1.0 + params.A * params.B))
    margin = zero.S - sigma
    wks = weierstrass.wk_scalar(params, zero.S).value
    record.update({
        "U": zero.U, "M": zero.M, "N": zero.N, "V": zero.V, "T": zero.T,
        "S": zero.S, "residual": zero.residual,
        "sigma": sigma, "margin": margin,
        "wk_scalar": wks,
    })
    status = "ok"
    try:
        sol = harmonic.solve_zero_point(params, zero, args.tol)
        lhs, rhs, master_ok = harmonic.master_inequality_check(
            sol, params, args.slack)
        record.update({
            "r": sol.z.r, "t0": sol.z.t, "D0": sol.D0, "delta": sol.delta,
            "a_mod": sol.a_mod, "wk_geometric": sol.WK,
            "route_gap": abs(wks - sol.WK),
            "master_lhs": lhs, "master_rhs": rhs, "master_ok": master_ok,
            "modulus_residual": harmonic.modulus_consistency_residual(
                params, sol.measures),
        })
    except NonConvergence as exc:
        status = "non_convergence"
        record["detail"] = str(exc)
        record["status"] = status
        _emit_json(record)
        return EXIT_SOLVER_FAILURE

    lo = math.pi ** 2 / 4.0 - args.slack
    hi = math.pi ** 2 / 2.0 + args.slack
    in_band = lo <= wks <= hi and lo <= sol.WK <= hi
    checks_ok = (margin >= -args.slack and master_ok and in_band
                 and record["route_gap"] <= ROUTE_GAP_BOUND)
    record.update({"in_band": in_band, "derivative_ok": margin >= -args.slack,
                   "status": status})
    _emit_json(record)
    return EXIT_OK if checks_ok else EXIT_CHECK_FAILED


def cmd_zero(args) -> int:
    try:
        params = _params_from_args(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    interval = admissible_interval(params)
    if not interval.nonempty:
        _emit_json({"A": params.A, "B": params.B, "status": "not_admissible"})
        return EXIT_NOT_ADMISSIBLE
    try:
        zero = solve_zero(params, args.tol)
        sol = harmonic.solve_zero_point(params, zero, args.tol)
    except (NoSignChange, NonConvergence) as exc:
        _emit_json({"A": params.A, "B": params.B, "status": "solver_failure",
                    "detail": str(exc)})
        return EXIT_SOLVER_FAILURE
    m = sol.measures
    _emit_json({
        "A": params.A, "B": params.B, "status": "ok",
        "r": sol.z.r, "t0": sol.z.t,
        "Omega1": m.Omega1, "Omega2": m.Omega2,
        "Omega3": m.Omega3, "Omega4": m.Omega4,
        "U": m.U, "V": m.V, "T": m.T,
        "D0": sol.D0, "delta": sol.delta, "a_mod": sol.a_mod,
        "WK": sol.WK, "master_lhs": sol.master_lhs,
        "residual": sol.residual,
    })
    return EXIT_OK


def _sweep_values(grid: int):
    return [i / grid for i in range(1, grid + 1)]


def cmd_sweep(args) -> int:
    if args.grid < 2:
        print("error: --grid must be >= 2", file=sys.stderr)
        return EXIT_BAD_INPUT
    rows = []
    if args.mode == "AB":
        values = _sweep_values(args.grid)
        for a in values:
            for b in values:
                rows.append(evaluate_pair(from_ab(a, b), args.tol))
    else:
        angles = [0.5 * math.pi * i / args.grid for i in range(1, args.grid + 1)]
        for p in angles:
            for s in angles:
                rows.append(evaluate_pair(from_angles(p, p + s), args.tol))

    counts: dict[str, int] = {}
    wk_values = []
    for row in rows:
        counts[row.status] = counts.get(row.status, 0) + 1
        if row.status == "ok":
            wk_values.append(row.wk_scalar)

    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    try:
        fd, tmp_path = tempfile.mkstemp(dir=out_dir, suffix=".csv.tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in rows:
                fh.write(row.csv() + "\n")
        os.replace(tmp_path, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    if wk_values:
        summary += (f"; wk min={min(wk_values):.12g}"
                    f" max={max(wk_values):.12g}")
    print(f"sweep {args.grid}x{args.grid} mode={args.mode}: {summary}",
          file=sys.stderr)
    return EXIT_OK


def _print_matrix(name: str, form: bernstein.BernsteinForm) -> None:
    print(f"{name} (bidegree {form.m}x{form.n}):")
    widths = [max(len(str(form.coeffs[i][j])) for i in range(form.m + 1))
              for j in range(form.n + 1)]
    for row in form.coeffs:
        cells = [str(c).rjust(w) for c, w in zip(row, widths)]
        print("  [ " + "  ".join(cells) + " ]")


def cmd_certify(args) -> int:
    corrupt = None
    if args.corrupt:
        name, i, j, delta = args.corrupt
        if name not in ("y", "2z"):
            print("error: --corrupt name must be 'y' or '2z'", file=sys.stderr)
            return EXIT_BAD_INPUT
        corrupt = (name, int(i), int(j), Fraction(delta))
    try:
        report = bernstein.verify_appendix_certificates(corrupt)
    except CertificateMismatch as exc:
        print(f"certificate mismatch: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if args.json:
        _emit_json({
            "y": json.loads(bernstein.certificate_to_json(report.y_form)),
            "two_z": json.loads(
                bernstein.certificate_to_json(report.two_z_form)),
            "nonnegative": report.all_nonnegative,
        })
    else:
        _print_matrix("Y(1-t,1-v)", report.y_form)
        _print_matrix("2Z(1-t,1-v)", report.two_z_form)
        print(f"min coefficients: y={report.y_min}, 2z={report.two_z_min}")
        print("all entries nonnegative" if report.all_nonnegative
              else "NEGATIVE ENTRY PRESENT")
    return EXIT_OK if report.all_nonnegative else EXIT_CHECK_FAILED


def cmd_odd(args) -> int:
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return EXIT_BAD_INPUT
    sharp = 8.0 / math.pi ** 2
    seeds = range(args.seed, args.seed + args.trials)
    s1s = oddmap.random_odd_S1(seeds, [1 + seed % 8 for seed in seeds], 0.3)
    first_min = int(s1s.argmin())   # the first minimum, as a strict < scan
    min_s1, min_seed = float(s1s[first_min]), seeds[first_min]
    print(f"min S1 over {args.trials} lifts: {min_s1:.12f} "
          f"(seed {min_seed}); sharp constant {sharp:.12f}")
    ok = min_s1 >= sharp - args.slack

    if args.extremal:
        print("extremal convergence (smoothing, S1, S1 - 8/pi^2):")
        for w in (0.1, 0.03, 0.01, 3e-3, 1e-3):
            s1 = oddmap.fourier_S1(oddmap.extremal_sequence(w))
            print(f"  {w:8.0e}  {s1:.10f}  {s1 - sharp:+.3e}")

    hall_lifts = [oddmap.identity_lift(),
                  oddmap.random_odd_lift(args.seed, modes=4, amplitude=0.3),
                  oddmap.extremal_sequence(0.01)]
    for lift in hall_lifts:
        rep = oddmap.hall_inequality_check(lift)
        print(f"hall: lhs={rep.lhs:.10f} rhs={rep.rhs:.10f} "
              f"holds={rep.holds} max(J-tau)={rep.max_j_minus_tau:.3e}")
        ok = ok and rep.holds and rep.max_j_minus_tau <= 1e-10

    lift = oddmap.random_odd_lift(args.seed + 1, modes=3, amplitude=0.25)
    c_a, _ = oddmap.autocorrelation(lift, 0.3)
    c_b, _ = oddmap.autocorrelation(lift, 0.5 * math.pi - 0.3)
    anti = abs(c_a + c_b)
    spectrum = oddmap.fourier_spectrum(lift)
    even_max = float(spectrum[1::2].max())  # S_2, S_4, ...
    print(f"autocorrelation antisymmetry residual: {anti:.3e}; "
          f"max even-mode energy: {even_max:.3e}")
    ok = ok and anti <= 1e-9 and even_max <= 1e-10
    print("odd-map checks PASS" if ok else "odd-map checks FAIL")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_logsub(args) -> int:
    if args.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return EXIT_BAD_INPUT
    import random
    rng = random.Random(args.seed)
    hs = args.h or [1e-3]
    ok = True
    for h in hs:
        max_rel = 0.0
        max_rel_k = 0.0
        sign_ok = True
        for _ in range(args.samples):
            a = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            if abs(a) >= 0.7:
                a *= 0.7 / abs(a)
            g = weierstrass.GaussAutomorphism(a=a, theta=rng.uniform(0, 2 * math.pi))
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            chk = weierstrass.log_subharmonicity_check(g, z, h)
            scale = max(1.0, abs(chk.lap_exact))
            max_rel = max(max_rel, abs(chk.lap_fd - chk.lap_exact) / scale)
            scale_k = max(1.0, abs(chk.lapK_exact))
            max_rel_k = max(max_rel_k,
                            abs(chk.lapK_fd - chk.lapK_exact) / scale_k)
            sign_ok = sign_ok and chk.lap_fd >= -1e-6 and chk.lapK_fd <= 1e-6
        print(f"h={h:g}: max rel err log(W^2|K|)={max_rel:.3e}, "
              f"log|K|={max_rel_k:.3e}, signs_ok={sign_ok}")
        ok = ok and sign_ok and max(max_rel, max_rel_k) < max(1e-3, 1e3 * h * h)
    print("log-subharmonicity checks PASS" if ok else
          "log-subharmonicity checks FAIL")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scherk",
        description=("Normalized curvature of the Scherk comparison family "
                     "and verification of its supporting identities."))
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair_flags(p):
        p.add_argument("--A", type=float, default=None)
        p.add_argument("--B", type=float, default=None)
        p.add_argument("--p", type=float, default=None)
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--tol", type=float, default=1e-12)
        p.add_argument("--slack", type=float, default=1e-9)

    p_check = sub.add_parser("check", help="full check for one pair")
    add_pair_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_zero = sub.add_parser("zero", help="zero-point record for one pair")
    add_pair_flags(p_zero)
    p_zero.set_defaults(func=cmd_zero)

    p_sweep = sub.add_parser("sweep", help="grid sweep to CSV")
    p_sweep.add_argument("--grid", type=int, default=100)
    p_sweep.add_argument("--out", type=str, required=True)
    p_sweep.add_argument("--mode", choices=("AB", "pq"), default="AB")
    p_sweep.add_argument("--tol", type=float, default=1e-12)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cert = sub.add_parser("certify", help="verify the two certificates")
    p_cert.add_argument("--json", action="store_true")
    p_cert.add_argument("--corrupt", nargs=4, default=None,
                        metavar=("NAME", "I", "J", "DELTA"),
                        help="test hook: perturb one computed entry")
    p_cert.set_defaults(func=cmd_certify)

    p_odd = sub.add_parser("odd", help="odd-lift coefficient experiments")
    p_odd.add_argument("--trials", type=int, default=100)
    p_odd.add_argument("--seed", type=int, default=0)
    p_odd.add_argument("--slack", type=float, default=1e-9)
    p_odd.add_argument("--extremal", action="store_true")
    p_odd.set_defaults(func=cmd_odd)

    p_log = sub.add_parser("logsub", help="log-Laplacian FD checks")
    p_log.add_argument("--samples", type=int, default=20)
    p_log.add_argument("--seed", type=int, default=0)
    p_log.add_argument("--h", type=float, action="append", default=None)
    p_log.set_defaults(func=cmd_logsub)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags; fold into the input-error code.
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except NotAdmissible as exc:
        print(f"not admissible: {exc}", file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE
    except (NoSignChange, NonConvergence) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
