"""Exact bivariate polynomials, Bernstein positivity certificates, and exact
proofs of the parameter and log-Laplacian identities (`prove_identities`).

All coefficients are int or Fraction, never float; nothing here rounds.
A polynomial on [0,1]^2 whose Bernstein expansion at some bidegree has
only nonnegative coefficients is nonnegative on the square (the basis
functions are), so an all-nonnegative coefficient matrix is a positivity
certificate.  The converse fails: a negative entry proves nothing, since
the polynomial may still be nonnegative.

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


def _exact(c):
    """c as an int when it is whole, else as a Fraction (floats exactly)."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


@dataclass(frozen=True)
class BiPoly:
    """Bivariate polynomial sum c * t^i * v^j over its nonzero terms
    {(i, j): c}.  Closed under + - * with ints and Fractions on either side
    and under ** by a small integer, so `p.evaluate(1 - t, 1 - v)` on the
    variables t, v is the substitution p(1-t, 1-v).  The terms are never
    mutated after construction."""

    terms: dict[tuple[int, int], int | Fraction]

    @property
    def deg_t(self) -> int:
        return max((i for i, _ in self.terms), default=0)

    @property
    def deg_v(self) -> int:
        return max((j for _, j in self.terms), default=0)

    @classmethod
    def from_coeffs(cls, rows) -> "BiPoly":
        """sum rows[i][j] * t^i * v^j; each entry goes through Fraction."""
        rows = [[_exact(c) for c in row] for row in rows]
        widths = {len(row) for row in rows}
        if len(widths) > 1:
            raise ValueError("ragged coefficient matrix")
        if widths in (set(), {0}):
            raise ValueError("empty coefficient matrix")
        return cls({(i, j): c for i, row in enumerate(rows)
                    for j, c in enumerate(row) if c})

    @classmethod
    def constant(cls, c) -> "BiPoly":
        """c as a polynomial: the one coercion of a scalar coefficient."""
        c = _exact(c)
        return cls({(0, 0): c} if c else {})

    @classmethod
    def var_t(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def var_v(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    def __add__(self, other) -> "BiPoly":
        terms = dict(self.terms)
        for key, c in _poly(other).terms.items():
            c += terms.get(key, 0)
            if c:
                terms[key] = c
            else:
                del terms[key]
        return BiPoly(terms)

    def __sub__(self, other) -> "BiPoly":
        return self + -1 * other

    def __rsub__(self, other) -> "BiPoly":
        return -1 * self + other

    def __mul__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            return self * BiPoly.constant(other)
        terms = {}
        for (i, j), c in self.terms.items():
            for (k, l), d in other.terms.items():
                key = (i + k, j + l)
                terms[key] = terms.get(key, 0) + c * d
        return BiPoly({key: c for key, c in terms.items() if c})

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError(f"negative power {n} of a polynomial")
        out = BiPoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    __radd__, __rmul__ = __add__, __mul__

    def partial(self, var: str) -> "BiPoly":
        """The partial derivative in `var`, "t" or "v", term by term."""
        axis = ("t", "v").index(var)
        return BiPoly({(i - (axis == 0), j - (axis == 1)): c * (i, j)[axis]
                       for (i, j), c in self.terms.items() if (i, j)[axis]})

    def evaluate(self, t, v):
        """Exact on Fraction or BiPoly arguments, float math on floats."""
        return sum(c * t ** i * v ** j for (i, j), c in self.terms.items())


def _poly(value) -> BiPoly:
    return value if isinstance(value, BiPoly) else BiPoly.constant(value)


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
    return BernsteinForm(m=m, n=n, coeffs=tuple(
        tuple(sum((_F(comb(i, k) * comb(j, l), comb(m, k) * comb(n, l)) * a
                   for (k, l), a in poly.terms.items() if k <= i and l <= j),
                  _F(0))
              for j in range(n + 1))
        for i in range(m + 1)))


_T, _V = BiPoly.var_t(), BiPoly.var_v()


def poly_y(A=_T, B=_V):
    """Y(A,B) = (2+AB-A^2)(2+AB-B^2) - 2(A+B), by default in (t, v)."""
    return (2 + A * B - A * A) * (2 + A * B - B * B) - 2 * (A + B)


def poly_two_z(A=_T, B=_V):
    """2*Z(A,B) with Z = C*(2*(C-A-B) + (A+B)(1-AB)/2) - (5/2)(1-A^2)(1+AB),
    by default in (t, v); the factor 2 clears the halves."""
    c = 2 + A * B - A * A
    return c * (4 * (c - A - B) + (A + B) * (1 - A * B)) \
        - 5 * (1 - A * A) * (1 + A * B)


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
    y_form = to_bernstein(poly_y(1 - _T, 1 - _V), 3, 3)
    tz_form = to_bernstein(poly_two_z(1 - _T, 1 - _V), 4, 4)
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
        return not self.num.terms

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
        else RationalFunction(_poly(value))


def prove_identities() -> dict[str, bool]:
    """Whether each identity holds: the parameter identities for all
    (x, y) = (tan(p/2), tan((q-p)/2)), the log-Laplacian ones for all (t, v).
    A = 2x/(1+x^2) and kappa = (1-x^2)/(1+x^2), and B, epsilon alike in y,
    are rational there, and the Fraction-safe L, R and P of `params` run on
    them unchanged.  lower_band gives S <= 2 sqrt(1+AB) at every U.
    threshold factors 1/2 - L and B0(A)'s quadratic by F1 = (x+y)^2 +
    x^2y^2 - 1 and F2 = (1-y^2) + x^2(1+y^2) + 2xy > 0, so L <= 1/2 and
    B >= B0(A) agree; F1 is symmetric, so by swap R >= 1/2 and L <= R agree
    too.  h_r needs only kappa^2, epsilon^2 and U in {0, 1}, as it is linear
    in U, so it runs in plain (A, B).

    log_wk_laplacian and log_k_laplacian hold for every Weierstrass pair
    (g, phi) with |g| < 1, wherever g' and phi do not vanish.  There
    log|g'|^2 and log|phi|^2 are harmonic, and Delta = 4 d dbar; with
    t = g and v = conj(g) as independent variables the chain rule gives
    Delta f(g, conj g) = 4|g'|^2 f_tv.  So, from W^2|K| =
    4|g'|^2/(|phi|^2 (1-|g|^4)^2) and |K| = 4|g'|^2/(|phi|^2 (1+|g|^2)^4),

        Delta log(W^2|K|) = 4|g'|^2 d_t d_v[-2 log(1 - t^2 v^2)]
                          = 32|g|^2|g'|^2/(1-|g|^4)^2 >= 0,
        Delta log|K|      = 4|g'|^2 d_t d_v[-4 log(1 + tv)]
                          = -16|g'|^2/(1+|g|^2)^2 < 0,

    which prove W^2|K| log-subharmonic and |K| log-superharmonic; the
    residuals are the middle = right steps, in (t, v).
    """
    x, y = RationalFunction(_T), RationalFunction(_V)
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

    def dtdv_log(h: BiPoly) -> RationalFunction:
        h_t, h_v = h.partial("t"), h.partial("v")
        return RationalFunction(h_t.partial("v") * h - h_t * h_v, h * h)

    tv = _T * _V
    residuals = {
        "lower_band": [4 * (1 + A * B) - band * band - gap * gap],
        "swap": [1 - R - params.interval_L(B, A, epsilon, kappa)],
        "p_minus_r": [P - R - epsilon * (A * epsilon + A + B)
                      / (A * B * (A + B) * (1 + epsilon))],
        "threshold": [8 * y * (x + y) * (1 + x * y) * (Fraction(1, 2) - L)
                      - f12, d * d * quadratic - 2 * f12],
        "h_r": h_r,
        "log_wk_laplacian": [-2 * dtdv_log(1 - tv * tv) - RationalFunction(
            8 * tv, (1 - tv * tv) ** 2)],
        "log_k_laplacian": [-4 * dtdv_log(1 + tv) + RationalFunction(
            BiPoly.constant(4), (1 + tv) ** 2)],
    }
    return {name: all(r.vanishes() for r in rs)
            for name, rs in residuals.items()}
