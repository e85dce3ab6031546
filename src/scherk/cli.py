"""Command-line surface: per-point checks, domain sweeps, certificate and
appendix-experiment runners, with machine-readable output.

Commands
    check    one (A, B) or (p, q) pair: scalar zero, both curvature
             routes, the band on each and their agreement; JSON on stdout
    zero     full zero-point record for one pair; JSON on stdout
    sweep    grid x grid classification over (A, B) or (p, q); CSV file
    certify  rebuild and verify the two positivity certificates; prove
             the parameter and log-Laplacian identities exactly
             (`bernstein.prove_identities`)
    odd      Monte-Carlo and extremal runs for the first-coefficient bound

`check` and `zero` render the `PairRecord` that `evaluate_pair` builds for
their one pair, through the scalar library path.  A refusal ends the
pipeline and becomes the status (`not_admissible`, `no_sign_change`,
`non_convergence`), with `detail` for a solver refusal.  `sweep` walks the
flattened grid once, in blocks of SWEEP_BLOCK pairs, and passes each block
whole to `evaluate_block`, which gates it with `admissible_interval`'s
predicate L <= R and calls the same closed forms on numpy arrays.  Each
row is written as soon as it is formatted, into a temporary file that
replaces `--out` once the sweep is done.  The parser is built once per
process.
`--tol` must be finite and > 0, `--slack` finite and >= 0, and `--out`
must name a file.

numpy is imported only where arrays are made: in `evaluate_block`,
`_sweep_blocks` and `cmd_sweep`, and through `oddmap`, which `odd` binds
as the module global `oddmap` on its first run.  `certify` imports
`bernstein`.  So `check`, `zero` and `certify` never load numpy.

Exit codes: 0 ok, 1 malformed input, 2 not admissible, 3 solver failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import harmonic, ops, scalar, weierstrass
from .errors import (CertificateMismatch, DomainError, NoSignChange,
                     NonConvergence)
from .params import (AdmissibleInterval, ScherkParams, ab_params,
                     admissible_interval, angle_params, arc_alpha, from_ab,
                     from_angles, interval_L, interval_R)

if TYPE_CHECKING:
    import numpy as np
    from .bernstein import BernsteinForm

# `scherk.oddmap`, which loads numpy, bound by `cmd_odd` on its first run.
oddmap = None

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NOT_ADMISSIBLE = 2
EXIT_SOLVER_FAILURE = 3
EXIT_CHECK_FAILED = 4

_STATUS_EXIT = {"ok": EXIT_OK, "not_admissible": EXIT_NOT_ADMISSIBLE,
                "no_sign_change": EXIT_SOLVER_FAILURE,
                "non_convergence": EXIT_SOLVER_FAILURE}

# Largest |wk_scalar - wk_geometric| that `check` accepts as route agreement.
ROUTE_GAP_BOUND = 1e-12

# The two-sided band pi^2/4 <= W^2|K| <= pi^2/2 on both routes.
BAND = (math.pi ** 2 / 4.0, math.pi ** 2 / 2.0)
SLACK = 1e-9   # `check`'s default slack on BAND

# `odd`'s gates: Hall's pointwise max(J - tau), the antisymmetry residual
# |C(t) + C(pi/2 - t)| of the autocorrelation, and the largest even-mode
# energy of an odd lift, each at most its bound.
HALL_J_BOUND = 1e-10
ANTISYMMETRY_BOUND = 1e-9
EVEN_MODE_BOUND = 1e-10

CSV_HEADER = ("p,q,A,B,admissible,U,S,margin,"
              "wk_scalar,wk_geometric,route_gap,status")

# Sweep statuses are stored as codes into STATUSES.
STATUSES = ("ok", "not_admissible", "no_sign_change", "non_convergence")
OK, NOT_ADMISSIBLE, NO_SIGN_CHANGE, NON_CONVERGENCE = range(len(STATUSES))

# Grid pairs per sweep block: one `evaluate_block` call each, so memory
# does not grow with the grid.  4096 is the smallest power of two that
# takes a grid-50 sweep (2500 pairs) in one call.
SWEEP_BLOCK = 4096


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


class Check(NamedTuple):
    name: str
    value: float
    bound: float | tuple[float, float]   # (low, high) for a band
    ok: bool


def _band_check(name: str, value: float, slack: float) -> Check:
    return Check(name, value, BAND,
                 BAND[0] - slack <= value <= BAND[1] + slack)


@dataclass(slots=True)
class PairRecord:
    """What the pipeline produced for one pair, up to its first refusal.

    `zero` and `wk_scalar` are set once the scalar zero is solved,
    `solution` once the zero point is; `detail` explains a solver refusal.
    """

    params: ScherkParams
    interval: AdmissibleInterval
    status: str
    detail: Optional[str] = None
    zero: Optional[scalar.ScalarZero] = None
    wk_scalar: Optional[float] = None
    solution: Optional[harmonic.ZeroSolution] = None

    @property
    def margin(self) -> float:
        """Sharp derivative margin S - sqrt(2(1+AB)); 0 at A = B = 1."""
        return self.zero.S - scalar.sigma(self.params)

    @property
    def route_gap(self) -> float:
        return abs(self.wk_scalar - self.solution.WK)

    def checks(self, slack: float) -> list[Check]:
        """The band on each route the pipeline reached, and the routes'
        agreement.  Within the band, S - sigma >= -slack on either route,
        so the sharp margin needs no check of its own."""
        if self.zero is None:
            return []
        out = [_band_check("band_scalar", self.wk_scalar, slack)]
        if self.solution is not None:
            out += [_band_check("band_geometric", self.solution.WK, slack),
                    Check("route_gap", self.route_gap, ROUTE_GAP_BOUND,
                          self.route_gap <= ROUTE_GAP_BOUND)]
        return out


def evaluate_pair(params: ScherkParams, tol: float = 1e-12) -> PairRecord:
    """The one per-pair pipeline; a refusal ends it and names the status."""
    interval = admissible_interval(params)
    if not interval.nonempty:
        return PairRecord(params, interval, "not_admissible")
    try:
        zero = scalar.solve_zero(params, tol)
    except NoSignChange as exc:
        return PairRecord(params, interval, "no_sign_change", str(exc))
    wks = weierstrass.wk_scalar(params, zero.S).value
    try:
        sol = harmonic.solve_zero_point(params, zero, tol)
    except NonConvergence as exc:
        return PairRecord(params, interval, "non_convergence", str(exc),
                          zero, wks)
    return PairRecord(params, interval, "ok", None, zero, wks, sol)


class BlockRecord(NamedTuple):
    """What `evaluate_block` produced for a block: per pair a status code
    into STATUSES and the sweep's columns, NaN where the pipeline stopped.
    """

    status: np.ndarray
    U: np.ndarray
    S: np.ndarray
    margin: np.ndarray
    wk_scalar: np.ndarray
    wk_geometric: np.ndarray
    route_gap: np.ndarray


def evaluate_block(pairs: ScherkParams, tol: float = 1e-12) -> BlockRecord:
    """`evaluate_pair` on a block of pairs, with numpy: the sweep's pipeline.

    The block is gated here, by `admissible_interval`'s predicate L <= R;
    the sweep passes its grid blocks whole.  The scalar path's closed
    forms, on ops.ARRAY, and the array twins of its solvers give each
    admissible pair its status and values; DomainError for the first pair
    with S <= 0 or D0 <= 0, and ValueError unless 0 < tol < inf.  A lone
    pair is over ten times faster on the scalar path.
    """
    import numpy as np

    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    status = np.full(pairs.A.size, NOT_ADMISSIBLE, np.int8)
    columns = np.full((6, pairs.A.size), np.nan)
    with np.errstate(all="ignore"):
        L, R = interval_L(*pairs[:4]), interval_R(*pairs[:4])   # A..epsilon
        idx = np.flatnonzero(L <= R)
        pairs = pairs.take(idx)
        U, (S, M, N), found, _ = scalar.solve_zero_block(pairs, L[idx],
                                                          R[idx], tol)
        status[idx[~found]] = NO_SIGN_CHANGE
        idx, pairs = idx[found], pairs.take(found)
        U, S, M, N = U[found], S[found], M[found], N[found]
        wks = weierstrass.wk_scalar_value(pairs, S)
        WK, D0, solved = harmonic.solve_zero_point_block(pairs, U, M, -N, tol)
    bad = np.flatnonzero((S <= 0.0) | (solved & (D0 <= 0.0)))
    if bad.size:
        i = bad[0]
        raise DomainError(f"require S > 0, got {float(S[i])}" if S[i] <= 0.0
                          else f"require D0 > 0, got {float(D0[i])}")
    status[idx] = np.where(solved, OK, NON_CONVERGENCE)
    WK[~solved] = np.nan
    columns[:, idx] = (U, S, S - scalar.sigma(pairs, ops.ARRAY), wks, WK,
                       np.abs(wks - WK))
    return BlockRecord(status, *columns)


_ROW_TAILS = {NOT_ADMISSIBLE: ",false,,,,,,,not_admissible\n",
              NO_SIGN_CHANGE: ",true,,,,,,,no_sign_change\n"}


def _lane_tails(rec: BlockRecord) -> list[str]:
    """Each pair's CSV row after its "p,q,A,B" head: the constant text of a
    refused pair, and a solved pair's floats with 17 significant digits."""
    codes = rec.status
    tails = list(map(_ROW_TAILS.get, codes.tolist()))
    solved = ((codes == OK) | (codes == NON_CONVERGENCE)).nonzero()[0]
    for k, status, U, S, margin, wks, wkg, gap in zip(
            solved.tolist(), *(col[solved].tolist() for col in rec)):
        if status == OK:
            tails[k] = (f",true,{U:.17g},{S:.17g},{margin:.17g},"
                        f"{wks:.17g},{wkg:.17g},{gap:.17g},ok\n")
        else:
            tails[k] = (f",true,{U:.17g},{S:.17g},{margin:.17g},"
                        f"{wks:.17g},,,non_convergence\n")
    return tails


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
    rec = evaluate_pair(_params_from_args(args), args.tol)
    params, interval = rec.params, rec.interval
    zero, sol = rec.zero, rec.solution
    out = {
        "A": params.A, "B": params.B, "p": params.p, "q": params.q,
        "alpha": arc_alpha(params), "L": interval.L, "R": interval.R,
        "B0": interval.B0, "admissible": interval.nonempty,
        "status": rec.status,
    }
    if rec.detail is not None:
        out["detail"] = rec.detail
    if zero is not None:
        out.update({
            "U": zero.U, "M": zero.M, "N": zero.N, "V": zero.V, "T": zero.T,
            "S": zero.S, "residual": zero.residual, "steps": zero.steps,
            "sigma": scalar.sigma(params), "margin": rec.margin,
            "wk_scalar": rec.wk_scalar,
        })
    if sol is None:
        _emit_json(out)
        return _STATUS_EXIT[rec.status]
    checks = {c.name: c for c in rec.checks(args.slack)}
    out.update({
        "r": sol.z.r, "t0": sol.z.t, "D0": sol.D0, "delta": sol.delta,
        "a_mod": sol.a_mod, "wk_geometric": sol.WK,
        "route_gap": rec.route_gap,
        "master_lhs": sol.master_lhs,
        "master_rhs": out["sigma"] / (params.A + params.B),
        "master_ok": checks["band_geometric"].ok,
        "modulus_residual": harmonic.modulus_consistency_residual(
            params, sol.measures),
        "in_band": checks["band_scalar"].ok and checks["band_geometric"].ok,
        "derivative_ok": checks["band_scalar"].ok,
    })
    _emit_json(out)
    ok = all(c.ok for c in checks.values())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_zero(args) -> int:
    rec = evaluate_pair(_params_from_args(args), args.tol)
    out = {"A": rec.params.A, "B": rec.params.B, "status": rec.status}
    if rec.detail is not None:
        out["detail"] = rec.detail
    sol = rec.solution
    if sol is not None:
        m = sol.measures
        out.update({
            "r": sol.z.r, "t0": sol.z.t,
            "Omega1": m.Omega1, "Omega2": m.Omega2,
            "Omega3": m.Omega3, "Omega4": m.Omega4,
            "U": m.U, "V": m.V, "T": m.T,
            "D0": sol.D0, "delta": sol.delta, "a_mod": sol.a_mod,
            "WK": sol.WK, "master_lhs": sol.master_lhs,
            "residual": sol.residual,
        })
    _emit_json(out)
    return _STATUS_EXIT[rec.status]


def _texts(values: np.ndarray) -> list[str]:
    return [f"{x:.17g}" for x in values.tolist()]


def _sweep_blocks(grid: int, ab: bool, tol: float):
    """Each SWEEP_BLOCK of a sweep's grid x grid pairs, row-major: its
    `evaluate_block` record and its CSV rows, formatted as they are read.

    Flat position k is the pair of axis steps divmod(k, grid) + 1.  The
    fields come from the builders of `from_ab` (`ab`) and `from_angles` on
    ops.ARRAY, so each is the float those constructors give.  Axis values
    are formatted once.  The grid lies inside both constructors' domains.
    """
    import numpy as np

    steps = range(1, grid + 1)
    if ab:
        values = np.array([i / grid for i in steps])      # A and B
        axis = ab_params(values, values, ops.ARRAY)
        p_text, a_text = _texts(axis.p), _texts(values)
    else:
        angles = np.array([0.5 * math.pi * i / grid for i in steps])
        p_text = _texts(angles)   # p and q - p: axis values
        a_text = _texts(angle_params(angles, angles, ops.ARRAY).A)
    size = grid * grid
    for start in range(0, size, SWEEP_BLOCK):
        i, j = np.divmod(np.arange(start, min(start + SWEEP_BLOCK, size)),
                         grid)
        if ab:
            row, col = axis.take(i), axis.take(j)
            pairs = ScherkParams(row.A, col.B, row.kappa, col.epsilon,
                                 row.p, row.p + col.p)   # q as from_ab
            b_text = [a_text[b] for b in j.tolist()]
        else:
            pairs = angle_params(angles[i], angles[i] + angles[j], ops.ARRAY)
            b_text = _texts(pairs.B)
        rec = evaluate_block(pairs, tol)
        yield rec, (f"{p_text[a]},{q:.17g},{a_text[a]},{b}{tail}"
                    for a, q, b, tail in zip(i.tolist(), pairs.q.tolist(),
                                             b_text, _lane_tails(rec)))


def cmd_sweep(args) -> int:
    import numpy as np

    counts = np.zeros(len(STATUSES), int)
    wk_min, wk_max = math.inf, -math.inf
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    try:
        fd, tmp_path = tempfile.mkstemp(dir=out_dir, suffix=".csv.tmp")
        try:
            # Rows come one at a time: a 64 KiB buffer, not the file
            # system's block size (often 4 KiB), sets how often they go out.
            with os.fdopen(fd, "w", buffering=1 << 16) as fh:
                fh.write(CSV_HEADER + "\n")
                for rec, rows in _sweep_blocks(args.grid, args.mode == "AB",
                                               args.tol):
                    counts += np.bincount(rec.status, minlength=len(STATUSES))
                    ok = rec.wk_scalar[rec.status == OK]
                    if ok.size:
                        wk_min = min(wk_min, float(ok.min()))
                        wk_max = max(wk_max, float(ok.max()))
                    fh.writelines(rows)
            os.replace(tmp_path, args.out)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    summary = ", ".join(f"{name}={n}" for name, n in
                        sorted(zip(STATUSES, counts.tolist())) if n)
    if counts[OK]:
        summary += f"; wk min={wk_min:.12g} max={wk_max:.12g}"
    print(f"sweep {args.grid}x{args.grid} mode={args.mode}: {summary}",
          file=sys.stderr)
    return EXIT_OK


def _print_matrix(name: str, form: BernsteinForm) -> None:
    print(f"{name} (bidegree {form.m}x{form.n}):")
    widths = [max(len(str(form.coeffs[i][j])) for i in range(form.m + 1))
              for j in range(form.n + 1)]
    for row in form.coeffs:
        cells = [str(c).rjust(w) for c, w in zip(row, widths)]
        print("  [ " + "  ".join(cells) + " ]")


def cmd_certify(args) -> int:
    from . import bernstein

    try:
        report = bernstein.verify_appendix_certificates()
    except CertificateMismatch as exc:
        print(f"certificate mismatch: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    identities = bernstein.prove_identities()
    if args.json:
        _emit_json({
            "y": bernstein.certificate_to_json(report.y_form),
            "two_z": bernstein.certificate_to_json(report.two_z_form),
            "nonnegative": report.all_nonnegative,
            "identities": identities,
        })
    else:
        _print_matrix("Y(1-t,1-v)", report.y_form)
        _print_matrix("2Z(1-t,1-v)", report.two_z_form)
        print(f"min coefficients: y={report.y_min}, 2z={report.two_z_min}")
        print("all entries nonnegative" if report.all_nonnegative
              else "NEGATIVE ENTRY PRESENT")
        for name, proved in identities.items():
            print(f"identity {name}: {'proved' if proved else 'FAILED'}")
    ok = report.all_nonnegative and all(identities.values())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_odd(args) -> int:
    global oddmap
    if oddmap is None:
        from . import oddmap
    sharp = 8.0 / math.pi ** 2
    seeds = range(args.seed, args.seed + args.trials)
    s1s = oddmap.random_odd_S1(seeds, [1 + seed % 8 for seed in seeds], 0.3)
    first_min = int(s1s.argmin())   # the first minimum, as a strict < scan
    min_s1, min_seed = float(s1s[first_min]), seeds[first_min]
    print(f"min S1 over {args.trials} lifts: {min_s1:.12f} "
          f"(seed {min_seed}); sharp constant {sharp:.12f}")
    ok = min_s1 >= sharp - args.slack

    collapse = None     # extremal_sequence(0.01), for the Hall check too
    if args.extremal:
        print("extremal convergence (smoothing, S1, S1 - 8/pi^2):")
        for w in (0.1, 0.03, 0.01, 3e-3, 1e-3):
            lift = oddmap.extremal_sequence(w)
            if w == 0.01:
                collapse = lift
            s1 = oddmap.fourier_S1(lift)
            print(f"  {w:8.0e}  {s1:.10f}  {s1 - sharp:+.3e}")

    hall_lifts = [oddmap.identity_lift(),
                  oddmap.random_odd_lift(args.seed, modes=4, amplitude=0.3),
                  collapse if collapse is not None
                  else oddmap.extremal_sequence(0.01)]
    for lift in hall_lifts:
        rep = oddmap.hall_inequality_check(lift)
        print(f"hall: lhs={rep.lhs:.10f} rhs={rep.rhs:.10f} "
              f"holds={rep.holds} max(J-tau)={rep.max_j_minus_tau:.3e}")
        ok = ok and rep.holds and rep.max_j_minus_tau <= HALL_J_BOUND

    lift = oddmap.random_odd_lift(args.seed + 1, modes=3, amplitude=0.25)
    c_a, _ = oddmap.autocorrelation(lift, 0.3)
    c_b, _ = oddmap.autocorrelation(lift, 0.5 * math.pi - 0.3)
    anti = abs(c_a + c_b)
    spectrum = oddmap.fourier_spectrum(lift)
    even_max = float(spectrum[1::2].max())  # S_2, S_4, ...
    print(f"autocorrelation antisymmetry residual: {anti:.3e}; "
          f"max even-mode energy: {even_max:.3e}")
    ok = ok and anti <= ANTISYMMETRY_BOUND and even_max <= EVEN_MODE_BOUND
    print("odd-map checks PASS" if ok else "odd-map checks FAIL")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _finite_float(strict: bool):
    """argparse type: a finite float, > 0 if `strict` and >= 0 otherwise."""
    def finite_float(text: str) -> float:
        value = float(text)
        if not math.isfinite(value) or value < 0.0 or (strict and value == 0):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'> 0' if strict else '>= 0'}, "
                f"got {text!r}")
        return value
    return finite_float


def _out_file(text: str) -> str:
    """argparse type: a path that names a file, so a sweep never runs to
    fail at the final rename."""
    if not os.path.basename(text) or os.path.isdir(text):
        raise argparse.ArgumentTypeError(
            f"must name a file, not a directory, got {text!r}")
    return text


def _int_at_least(low: int):
    """argparse type: an integer >= `low`."""
    def int_at_least(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {text!r}")
        return value
    return int_at_least


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
        p.add_argument("--tol", type=_finite_float(True), default=1e-12)

    p_check = sub.add_parser("check", help="full check for one pair")
    add_pair_flags(p_check)
    p_check.add_argument("--slack", type=_finite_float(False), default=SLACK)
    p_check.set_defaults(func=cmd_check)

    p_zero = sub.add_parser("zero", help="zero-point record for one pair")
    add_pair_flags(p_zero)
    p_zero.set_defaults(func=cmd_zero)

    p_sweep = sub.add_parser("sweep", help="grid sweep to CSV")
    p_sweep.add_argument("--grid", type=_int_at_least(2), default=100)
    p_sweep.add_argument("--out", type=_out_file, required=True)
    p_sweep.add_argument("--mode", choices=("AB", "pq"), default="AB")
    p_sweep.add_argument("--tol", type=_finite_float(True), default=1e-12)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cert = sub.add_parser("certify", help="verify the two certificates")
    p_cert.add_argument("--json", action="store_true")
    p_cert.set_defaults(func=cmd_certify)

    p_odd = sub.add_parser("odd", help="odd-lift coefficient experiments")
    p_odd.add_argument("--trials", type=_int_at_least(1), default=100)
    # a seed keys its lift's stream by its unsigned 64-bit words: >= 0
    p_odd.add_argument("--seed", type=_int_at_least(0), default=0)
    p_odd.add_argument("--slack", type=_finite_float(False), default=1e-9)
    p_odd.add_argument("--extremal", action="store_true")
    p_odd.set_defaults(func=cmd_odd)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built on the first call of the process: parsing
    leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags; fold into the input-error code.
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
