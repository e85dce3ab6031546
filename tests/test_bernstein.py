import json
from fractions import Fraction

import pytest

from scherk import params
from scherk.bernstein import (CERT_2Z_EXPECTED, CERT_Y_EXPECTED, BiPoly,
                              RationalFunction, certificate_to_json,
                              poly_two_z, poly_y, prove_identities,
                              to_bernstein, verify_appendix_certificates)
from scherk.errors import CertificateMismatch, DegreeError

F = Fraction


def random_bipoly(rng, deg_t, deg_v):
    rows = [[F(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
             for _ in range(deg_v + 1)] for _ in range(deg_t + 1)]
    return BiPoly.from_coeffs(rows)


def sparse_bipoly(rng, deg_t, deg_v):
    # About half the entries are zero, so sums and products cancel terms.
    rows = [[F(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))
             * int(rng.integers(0, 2))
             for _ in range(deg_v + 1)] for _ in range(deg_t + 1)]
    return BiPoly.from_coeffs(rows)


def random_point(rng):
    return (F(int(rng.integers(-20, 21)), int(rng.integers(1, 13))),
            F(int(rng.integers(-20, 21)), int(rng.integers(1, 13))))


def exact_and_sparse(p):
    return all(type(c) in (int, F) and c != 0 for c in p.terms.values())


def test_substitution_agrees_with_evaluation(rng):
    # p(1-t, 1-v), formed by evaluating p at polynomials, takes the value
    # p(1-a, 1-b) at every point (a, b).
    t, v = BiPoly.var_t(), BiPoly.var_v()
    for _ in range(50):
        p = sparse_bipoly(rng, int(rng.integers(0, 5)),
                          int(rng.integers(0, 5)))
        reflected = p.evaluate(1 - t, 1 - v)
        assert isinstance(reflected, BiPoly) and exact_and_sparse(reflected)
        assert reflected.deg_t <= p.deg_t and reflected.deg_v <= p.deg_v
        for _ in range(5):
            a, b = random_point(rng)
            assert reflected.evaluate(a, b) == p.evaluate(1 - a, 1 - b)
        assert reflected.evaluate(1 - t, 1 - v) == p


def test_evaluation_is_a_ring_homomorphism(rng):
    for _ in range(100):
        p, q = (sparse_bipoly(rng, int(rng.integers(0, 4)),
                              int(rng.integers(0, 4))) for _ in range(2))
        c = F(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        k = int(rng.integers(0, 4))
        a, b = random_point(rng)
        pa, qa = p.evaluate(a, b), q.evaluate(a, b)
        for r, value in ((p + q, pa + qa), (p - q, pa - qa),
                         (p * q, pa * qa), (c * p, c * pa), (p * c, pa * c),
                         (c + p, c + pa), (p - c, pa - c), (c - p, c - pa),
                         (3 * p - q, 3 * pa - qa), (p ** k, pa ** k)):
            assert exact_and_sparse(r)
            assert r.evaluate(a, b) == value
        assert (p - p).terms == {} and (0 * q).terms == {}
    with pytest.raises(ValueError):
        BiPoly.var_t() ** -1


def test_trailing_zero_rows_and_columns_are_trimmed():
    padded = BiPoly.from_coeffs([[1, "1/2", 0], [0, 3, 0], [0, 0, 0]])
    trimmed = BiPoly.from_coeffs([[1, F(1, 2)], [0, 3]])
    assert padded == trimmed
    assert (padded.deg_t, padded.deg_v) == (1, 1)
    assert to_bernstein(padded, 1, 1) == to_bernstein(trimmed, 1, 1)
    zero = BiPoly.from_coeffs([[0, 0], [0, 0]])
    assert zero.terms == {} and (zero.deg_t, zero.deg_v) == (0, 0)
    assert to_bernstein(zero, 0, 0).coeffs == ((0,),)


def test_from_coeffs_coerces_exactly():
    p = BiPoly.from_coeffs([[0.5, "2/3", F(4, 2), 7]])
    assert p.terms == {(0, 0): F(1, 2), (0, 1): F(2, 3), (0, 2): 2,
                       (0, 3): 7}
    assert type(p.terms[(0, 2)]) is int and exact_and_sparse(p)


@pytest.mark.parametrize("rows, message", [
    ([[1, 2], [3]], "ragged"), ([[1], [2, 3]], "ragged"),
    ([], "empty"), ([[]], "empty"), ([[], []], "empty"),
])
def test_from_coeffs_rejects_ragged_and_empty(rows, message):
    with pytest.raises(ValueError, match=message):
        BiPoly.from_coeffs(rows)


def test_constant_partition_of_unity():
    one = BiPoly.constant(1)
    for m, n in ((0, 0), (3, 2), (5, 5)):
        form = to_bernstein(one, m, n)
        assert all(c == 1 for row in form.coeffs for c in row)


def test_linear_endpoint_interpolation():
    t = BiPoly.var_t()
    form = to_bernstein(t, 1, 0)
    assert form.coeffs == ((F(0),), (F(1),))


def test_degree_error():
    p = BiPoly.var_t() * BiPoly.var_t()
    with pytest.raises(DegreeError):
        to_bernstein(p, 1, 0)


def test_round_trip_random(rng):
    # Two polynomials of bidegree (m, n) that agree on an (m+1) x (n+1)
    # grid of distinct points are equal, so exact agreement of the
    # Bernstein form with the monomial form there pins every coefficient.
    for _ in range(100):
        dt = int(rng.integers(0, 7))
        dv = int(rng.integers(0, 7))
        p = random_bipoly(rng, dt, dv)
        m = dt + int(rng.integers(0, 3))
        n = dv + int(rng.integers(0, 3))
        form = to_bernstein(p, m, n)
        for i in range(m + 1):
            for j in range(n + 1):
                t, v = F(i, m + 2), F(2 * j + 1, 2 * n + 3)
                assert form.evaluate(t, v) == p.evaluate(t, v)


def test_corner_interpolation_random(rng):
    for _ in range(20):
        p = random_bipoly(rng, 3, 3)
        form = to_bernstein(p, 4, 5)
        corners = {(0, 0): (F(0), F(0)), (4, 0): (F(1), F(0)),
                   (0, 5): (F(0), F(1)), (4, 5): (F(1), F(1))}
        for (i, j), (t, v) in corners.items():
            assert form.coeffs[i][j] == p.evaluate(t, v)


def test_certify_square_plus_constant():
    # (t-1/2)^2 has Bernstein coefficients (1/4, -1/4, 1/4) at degree 2:
    # nonnegative on [0, 1], yet not certified at this degree.
    sq = BiPoly.from_coeffs([[F(1, 4)], [F(-1)], [F(1)]])
    form = to_bernstein(sq, 2, 0)
    assert [row[0] for row in form.coeffs] == [F(1, 4), F(-1, 4), F(1, 4)]
    assert form.min_coeff() == F(-1, 4)


def test_certificate_soundness_float_recheck(rng):
    # Both shipped certificates have only nonnegative entries, so Y and 2Z
    # must be nonnegative on the square; float evaluation of the monomial
    # forms must agree up to rounding.
    rep = verify_appendix_certificates()
    assert rep.all_nonnegative
    pts = rng.uniform(0.0, 1.0, (1000, 2))
    for poly in (poly_y(), poly_two_z()):
        for a, b in pts:
            assert poly.evaluate(float(a), float(b)) >= -1e-12


def test_poly_y_matches_closed_form_samples():
    y = poly_y()
    for a, b in ((F(1), F(1)), (F(0), F(0)), (F(1, 2), F(1, 3))):
        direct = (2 + a * b - a * a) * (2 + a * b - b * b) - 2 * (a + b)
        assert y.evaluate(a, b) == direct


def test_verify_appendix_certificates():
    rep = verify_appendix_certificates()
    assert rep.all_nonnegative
    assert rep.y_min == 0 and rep.two_z_min == 0
    assert rep.y_form.coeffs == CERT_Y_EXPECTED
    assert rep.two_z_form.coeffs == CERT_2Z_EXPECTED
    # Spot entries.
    assert rep.y_form.coeffs[1][2] == F(20, 9)
    assert rep.y_form.coeffs[2][2] == F(28, 9)
    assert rep.two_z_form.coeffs[1][2] == F(41, 24)
    assert rep.two_z_form.coeffs[2][3] == F(143, 24)
    assert rep.two_z_form.coeffs[3][1] == F(103, 16)
    assert rep.two_z_form.coeffs[3][3] == F(139, 16)
    assert rep.two_z_form.coeffs[4][4] == 11


def test_certificate_corner_values():
    # Bernstein corner coefficients equal corner values of the reflected
    # polynomials: Y(1,1), Y(0,0), 2Z(0,0).
    y = poly_y()
    assert CERT_Y_EXPECTED[0][0] == y.evaluate(F(1), F(1)) == 0
    assert CERT_Y_EXPECTED[3][3] == y.evaluate(F(0), F(0)) == 4
    tz = poly_two_z()
    assert CERT_2Z_EXPECTED[4][4] == tz.evaluate(F(0), F(0)) == 11
    assert CERT_2Z_EXPECTED[0][0] == tz.evaluate(F(1), F(1)) == 0


def test_verify_certificates_corruption_hook(corrupt_expected):
    corrupt_expected("2z", 2, 2, F(-1, 9))
    with pytest.raises(CertificateMismatch) as exc:
        verify_appendix_certificates()
    assert "2z[2][2]" in str(exc.value)
    corrupt_expected("y", 0, 0, F(1))
    with pytest.raises(CertificateMismatch) as exc:
        verify_appendix_certificates()
    assert "y[0][0]" in str(exc.value)


def test_certificate_json_round_trip():
    rep = verify_appendix_certificates()
    doc = json.loads(json.dumps(certificate_to_json(rep.y_form)))
    assert doc["bidegree"] == [3, 3]
    assert doc["coeffs"][1][2] == "20/9"
    assert all(isinstance(s, str) for row in doc["coeffs"] for s in row)
    back = tuple(tuple(F(s) for s in row) for row in doc["coeffs"])
    assert back == rep.y_form.coeffs


def test_rational_function_field():
    x = RationalFunction(BiPoly.var_t())
    y = RationalFunction(BiPoly.var_v())
    assert (x / (x * y) * y - 1).vanishes()
    assert (F(1, 2) - x / 2 - (1 - x) / 2).vanishes()
    assert not (x - y).vanishes()
    assert not (x * x / (1 + x) - x).vanishes()
    with pytest.raises(ZeroDivisionError):
        y / (x - x)


@pytest.mark.parametrize("name, corrupt, fails", [
    ("interval_L", lambda f: lambda A, B, k, e: f(A, B, k, e) + A * B / 97,
     {"swap", "threshold"}),
    ("pole", lambda f: lambda pair: f(pair) - pair.A / 3,
     {"p_minus_r", "h_r"}),
], ids=["interval_L", "pole"])
def test_prove_identities_catches_a_wrong_formula(monkeypatch, name, corrupt,
                                                  fails):
    # A wrong term in one shipped closed form fails exactly the identities
    # that run it (interval_R: test_certify_names_a_failed_identity).
    monkeypatch.setattr(params, name, corrupt(getattr(params, name)))
    proved = prove_identities()
    assert {key for key, ok in proved.items() if not ok} == fails
