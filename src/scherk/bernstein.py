"""Exact bivariate polynomials, Bernstein positivity certificates, and exact
proofs of the parameter identities (`prove_identities`).

All coefficients are fractions.Fraction; nothing here rounds.  A polynomial
on [0,1]^2 whose Bernstein expansion at some bidegree has only nonnegative
coefficients is nonnegative on the square (the basis functions are), so an
all-nonnegative coefficient matrix is a positivity certificate.  The
converse fails: a negative entry proves nothing, since the polynomial may
still be nonnegative.

The two certificates shipped with the package cover

    Y(A,B)  = (2+AB-A^2)(2+AB-B^2) - 2(A+B)             at bidegree (3,3),
    2*Z(A,B), Z = C*(2*(C-A-B) + (A+B)(1-AB)/2)
                  - (5/2)(1-A^2)(1+AB), C = 2+AB-A^2,   at bidegree (4,4),

both after the corner substitution A = 1-t, B = 1-v.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import params
from .errors import CertificateMismatch, DegreeError

_F = Fraction


def _as_fraction_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    out = []
    width = None
    for row in rows:
        frow = tuple(Fraction(c) for c in row)
        if width is None:
            width = len(frow)
        elif len(frow) != width:
            raise ValueError("ragged coefficient matrix")
        out.append(frow)
    if not out or width == 0:
        raise ValueError("empty coefficient matrix")
    return tuple(out)


@dataclass(frozen=True)
class BiPoly:
    """Bivariate polynomial sum a[i][j] * t^i * v^j with exact coefficients."""

    coeffs: tuple[tuple[Fraction, ...], ...]

    @property
    def deg_t(self) -> int:
        return len(self.coeffs) - 1

    @property
    def deg_v(self) -> int:
        return len(self.coeffs[0]) - 1

    @classmethod
    def from_coeffs(cls, rows) -> "BiPoly":
        return cls(_as_fraction_rows(rows))

    @classmethod
    def constant(cls, c) -> "BiPoly":
        return cls(((Fraction(c),),))

    @classmethod
    def var_t(cls) -> "BiPoly":
        return cls(((_F(0),), (_F(1),)))

    @classmethod
    def var_v(cls) -> "BiPoly":
        return cls(((_F(0), _F(1)),))

    def _padded(self, dt: int, dv: int):
        rows = []
        for i in range(dt + 1):
            row = [_F(0)] * (dv + 1)
            if i <= self.deg_t:
                for j, c in enumerate(self.coeffs[i]):
                    row[j] = c
            rows.append(row)
        return rows

    def __add__(self, other: "BiPoly") -> "BiPoly":
        dt = max(self.deg_t, other.deg_t)
        dv = max(self.deg_v, other.deg_v)
        a = self._padded(dt, dv)
        b = other._padded(dt, dv)
        return BiPoly(tuple(tuple(x + y for x, y in zip(ra, rb))
                            for ra, rb in zip(a, b)))

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-1) * other

    def __mul__(self, other):
        if not isinstance(other, BiPoly):
            c = Fraction(other)
            return BiPoly(tuple(tuple(c * x for x in row)
                                for row in self.coeffs))
        dt = self.deg_t + other.deg_t
        dv = self.deg_v + other.deg_v
        acc = [[_F(0)] * (dv + 1) for _ in range(dt + 1)]
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c == 0:
                    continue
                for k, orow in enumerate(other.coeffs):
                    for l, d in enumerate(orow):
                        if d != 0:
                            acc[i + k][j + l] += c * d
        return BiPoly(tuple(tuple(r) for r in acc))

    __rmul__ = __mul__

    def evaluate(self, t, v):
        """Exact on Fraction arguments, ordinary float math otherwise."""
        total = 0
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c != 0:
                    total += c * t ** i * v ** j
        return total

    def reflect(self) -> "BiPoly":
        """The polynomial p(1-t, 1-v), expanded exactly."""
        dt, dv = self.deg_t, self.deg_v
        acc = [[_F(0)] * (dv + 1) for _ in range(dt + 1)]
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c == 0:
                    continue
                for k in range(i + 1):
                    ck = comb(i, k) * (-1) ** k
                    for l in range(j + 1):
                        acc[k][l] += c * ck * comb(j, l) * (-1) ** l
        return BiPoly(tuple(tuple(r) for r in acc))


@dataclass(frozen=True)
class BernsteinForm:
    """Coefficients p[i][j] against C(m,i)t^i(1-t)^(m-i) C(n,j)v^j(1-v)^(n-j)."""

    m: int
    n: int
    coeffs: tuple[tuple[Fraction, ...], ...]

    def min_coeff(self) -> Fraction:
        return min(min(row) for row in self.coeffs)

    def evaluate(self, t, v):
        one = Fraction(1) if isinstance(t, Fraction) else 1
        total = 0
        for i, row in enumerate(self.coeffs):
            bt = comb(self.m, i) * t ** i * (one - t) ** (self.m - i)
            for j, c in enumerate(row):
                if c != 0:
                    total += c * bt * comb(self.n, j) * v ** j * (one - v) ** (self.n - j)
        return total


def to_bernstein(poly: BiPoly, m: int, n: int) -> BernsteinForm:
    """Exact monomial-to-Bernstein conversion at bidegree (m, n).

    p_ij = sum_{k<=i, l<=j} C(i,k)C(j,l) / (C(m,k)C(n,l)) * a_kl.
    """
    if m < poly.deg_t or n < poly.deg_v:
        raise DegreeError(
            f"bidegree ({m},{n}) below polynomial degree "
            f"({poly.deg_t},{poly.deg_v})")
    a = poly.coeffs
    rows = []
    for i in range(m + 1):
        row = []
        for j in range(n + 1):
            s = _F(0)
            for k in range(min(i, poly.deg_t) + 1):
                ck = _F(comb(i, k), comb(m, k))
                for l in range(min(j, poly.deg_v) + 1):
                    if a[k][l] != 0:
                        s += ck * _F(comb(j, l), comb(n, l)) * a[k][l]
            row.append(s)
        rows.append(tuple(row))
    return BernsteinForm(m=m, n=n, coeffs=tuple(rows))


def poly_y() -> BiPoly:
    """Y(A,B) = (2+AB-A^2)(2+AB-B^2) - 2(A+B), in the variables (A, B)."""
    A = BiPoly.var_t()
    B = BiPoly.var_v()
    two = BiPoly.constant(2)
    ca = two + A * B - A * A
    cb = two + A * B - B * B
    return ca * cb - 2 * (A + B)


def poly_two_z() -> BiPoly:
    """2*Z(A,B) with Z = C*(2*(C-A-B) + (A+B)(1-AB)/2) - (5/2)(1-A^2)(1+AB)."""
    A = BiPoly.var_t()
    B = BiPoly.var_v()
    one = BiPoly.constant(1)
    c = BiPoly.constant(2) + A * B - A * A
    inner = 2 * (c - A - B) + Fraction(1, 2) * ((A + B) * (one - A * B))
    z = c * inner - Fraction(5, 2) * ((one - A * A) * (one + A * B))
    return 2 * z


#: Expected Bernstein coefficients of Y(1-t, 1-v) at bidegree (3, 3).
CERT_Y_EXPECTED: tuple[tuple[Fraction, ...], ...] = tuple(
    tuple(Fraction(c) for c in row) for row in (
        ("0", "2/3", "1/3", "0"),
        ("2/3", "2", "20/9", "2"),
        ("1/3", "20/9", "28/9", "10/3"),
        ("0", "2", "10/3", "4"),
    ))

#: Expected Bernstein coefficients of 2*Z(1-t, 1-v) at bidegree (4, 4).
CERT_2Z_EXPECTED: tuple[tuple[Fraction, ...], ...] = tuple(
    tuple(Fraction(c) for c in row) for row in (
        ("0", "1", "4/3", "5/4", "1"),
        ("0", "9/8", "41/24", "15/8", "7/4"),
        ("10/3", "55/12", "49/9", "143/24", "37/6"),
        ("5", "103/16", "23/3", "139/16", "19/2"),
        ("5", "13/2", "8", "19/2", "11"),
    ))


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of rebuilding and checking both shipped certificates."""

    y_form: BernsteinForm
    two_z_form: BernsteinForm
    y_min: Fraction
    two_z_min: Fraction
    all_nonnegative: bool


def _compare(name: str, form: BernsteinForm, expected) -> None:
    for i, row in enumerate(form.coeffs):
        for j, c in enumerate(row):
            if c != expected[i][j]:
                raise CertificateMismatch(
                    f"{name}[{i}][{j}] = {c}, expected {expected[i][j]}")


def verify_appendix_certificates() -> CertificateReport:
    """Rebuild both certificates from their closed forms and check them.

    Builds Y and 2Z symbolically, substitutes A = 1-t, B = 1-v, converts to
    Bernstein form at (3,3) resp. (4,4), and asserts exact entry-by-entry
    equality with the expected matrices plus nonnegativity of every entry.
    Raises CertificateMismatch naming the first bad entry.
    """
    y_form = to_bernstein(poly_y().reflect(), 3, 3)
    tz_form = to_bernstein(poly_two_z().reflect(), 4, 4)
    _compare("y", y_form, CERT_Y_EXPECTED)
    _compare("2z", tz_form, CERT_2Z_EXPECTED)

    y_min = y_form.min_coeff()
    tz_min = tz_form.min_coeff()
    return CertificateReport(
        y_form=y_form,
        two_z_form=tz_form,
        y_min=y_min,
        two_z_min=tz_min,
        all_nonnegative=y_min >= 0 and tz_min >= 0,
    )


def certificate_to_json(form: BernsteinForm) -> dict:
    """The certificate as a dict of exact rational strings, never floats."""
    return {
        "bidegree": [form.m, form.n],
        "coeffs": [[str(c) for c in row] for row in form.coeffs],
    }


@dataclass(frozen=True)
class RationalFunction:
    """num/den over BiPoly, closed under + - * /, with ints and Fractions on
    either side of + - * and as divisors.  Dividing by the zero polynomial
    raises, so no residual is 0/0."""

    num: BiPoly
    den: BiPoly = BiPoly.constant(1)

    def vanishes(self) -> bool:
        return not any(map(any, self.num.coeffs))

    def __add__(self, other):
        other = _lift(other)
        if self.den == other.den:   # keep a shared denominator
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other):
        return self + -1 * _lift(other)

    def __rsub__(self, other):
        return _lift(other) - self

    def __mul__(self, other):
        other = _lift(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = _lift(other)
        if other.vanishes():
            raise ZeroDivisionError("division by the zero polynomial")
        return RationalFunction(self.num * other.den, self.den * other.num)

    __radd__, __rmul__ = __add__, __mul__


def _lift(value) -> RationalFunction:
    return value if isinstance(value, RationalFunction) \
        else RationalFunction(BiPoly.constant(value))


def prove_identities() -> dict[str, bool]:
    """Whether each identity holds for all (x, y) = (tan(p/2), tan((q-p)/2)).
    A = 2x/(1+x^2) and kappa = (1-x^2)/(1+x^2), and B, epsilon alike in y,
    are rational there, and the Fraction-safe L, R and P of `params` run on
    them unchanged.  lower_band gives S <= 2 sqrt(1+AB) at every U.
    threshold factors 1/2 - L and B0(A)'s quadratic by F1 = (x+y)^2 +
    x^2y^2 - 1 and F2 = (1-y^2) + x^2(1+y^2) + 2xy > 0, so L <= 1/2 and
    B >= B0(A) agree; F1 is symmetric, so by swap R >= 1/2 and L <= R agree
    too.  h_r needs only kappa^2, epsilon^2 and U in {0, 1}, as it is linear
    in U, so it runs in plain (A, B).
    """
    x, y = RationalFunction(BiPoly.var_t()), RationalFunction(BiPoly.var_v())
    A, kappa = 2 * x / (1 + x * x), (1 - x * x) / (1 + x * x)
    B, epsilon = 2 * y / (1 + y * y), (1 - y * y) / (1 + y * y)
    L = params.interval_L(A, B, kappa, epsilon)
    R = params.interval_R(A, B, kappa, epsilon)
    P = params.pole(params.ScherkParams(A, B, kappa, epsilon, None, None))
    band = A + B + B * kappa + A * epsilon
    gap = kappa * epsilon + kappa + epsilon - 1 - A * B
    f12 = ((x + y) * (x + y) + x * x * y * y - 1) * (
        (1 - y * y) + x * x * (1 + y * y) + 2 * x * y)
    d = (1 + x * x) * (1 + y * y)
    quadratic = (1 + kappa) * B * B + A * (1 - kappa) * B - 2 * kappa
    a, b = x, y   # the same two variables, read as A and B for H_R
    k2, p_ab = 1 - a * a, params.pole(params.ScherkParams(a, b, *[None] * 4))
    h_r = [(a + b) * (1 - U) + b * k2 * (p_ab - U)
           + a * (1 - b * b) * (U + k2 / (a * (a + b)))
           - b * (2 + a * b - a * a) * (p_ab - U) for U in (0, 1)]
    residuals = {
        "lower_band": [4 * (1 + A * B) - band * band - gap * gap],
        "swap": [1 - R - params.interval_L(B, A, epsilon, kappa)],
        "p_minus_r": [P - R - epsilon * (A * epsilon + A + B)
                      / (A * B * (A + B) * (1 + epsilon))],
        "threshold": [8 * y * (x + y) * (1 + x * y) * (Fraction(1, 2) - L)
                      - f12, d * d * quadratic - 2 * f12],
        "h_r": h_r,
    }
    return {name: all(r.vanishes() for r in rs)
            for name, rs in residuals.items()}
