import math

import numpy as np
import pytest

from conftest import (barrier_point, linear_estimates, named_check,
                      random_admissible)
from oracles import mp_scalar_root
from scherk.bernstein import prove_identities
from scherk.cli import evaluate_block, evaluate_pair
from scherk.errors import NoSignChange, NotAdmissible
from scherk.harmonic import solve_zero_point
from scherk.ops import ARRAY
from scherk.params import (ScherkParams, ab_params, admissible_interval,
                           from_ab, interval_R, threshold_b0)
from scherk.scalar import g_s, sigma, solve_zero, solve_zero_block


def test_g_eval_equality_corner():
    g, _, m, n = g_s(from_ab(1.0, 1.0))(0.5)
    assert abs(g) < 1e-15   # (A+B)*cos(pi/2) rounds to ~1e-16
    assert m == 0.0 and n == 0.0


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 0.95, 1.0])
def test_g_vanishes_at_half_for_symmetric_pairs(a):
    g, _, m, n = g_s(from_ab(a, a))(0.5)
    assert abs(g) < 1e-14
    assert m == pytest.approx(n, abs=1e-14)


def test_g_eval_frozen_value():
    # 50-digit evaluation of the three cosine terms.
    g = g_s(from_ab(0.6, 0.95))(0.5)[0]
    assert g == pytest.approx(-0.096698030138343262333, abs=1e-14)


def test_s_eval_values():
    assert g_s(from_ab(1.0, 1.0))(0.5)[1] == pytest.approx(2.0, abs=1e-15)
    # Symmetric closed form S = 2A + 2*A*kappa*sin(pi*kappa/(2A^2)).
    a = 0.95
    k = math.sqrt(1 - a * a)
    closed = 2 * a + 2 * a * k * math.sin(math.pi * k / (2 * a * a))
    s = g_s(from_ab(a, a))(0.5)[1]
    assert s == pytest.approx(closed, abs=1e-14)
    assert s == pytest.approx(2.2067874442598013117, abs=1e-13)


def test_solve_zero_refuses_exactly_the_empty_intervals():
    # solve_zero decides admissibility by its own L <= R; within a few ulps
    # of B0(A) it must agree with admissible_interval.
    for a in (0.2, 0.3, 0.5, 0.9):
        b0 = threshold_b0(a)
        for b in (b0 - 1e-12, math.nextafter(b0, 0.0), b0,
                  math.nextafter(b0, 1.0), b0 + 1e-12, b0 + 1e-9):
            params = from_ab(a, b)
            try:
                solve_zero(params)
                refused = False
            except NotAdmissible:
                refused = True
            except NoSignChange:
                refused = False
            assert refused == (not admissible_interval(params).nonempty), \
                (a, b)


def test_solve_zero_not_admissible_names_the_interval():
    params = from_ab(0.5, 0.9)
    iv = admissible_interval(params)
    with pytest.raises(NotAdmissible) as exc:
        solve_zero(params)
    assert str(exc.value) == (f"empty admissible interval for A=0.5, B=0.9: "
                              f"L={iv.L} > R={iv.R}")


def test_solve_zero_equality_corner_is_exact():
    z = solve_zero(from_ab(1.0, 1.0))
    assert z.U == 0.5 and z.S == 2.0 and z.residual == 0.0
    assert z.M == z.N == z.V == z.T == 0.0


def test_solve_zero_symmetric():
    # Symmetric pairs are admissible only for a^2 >= (sqrt(5)-1)/2, i.e.
    # a >= 0.7862; at any admissible symmetric pair the zero is U = 1/2.
    for a in (0.8, 0.9, 0.95):
        z = solve_zero(from_ab(a, a))
        assert z.U == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(NotAdmissible):
        solve_zero(from_ab(0.7, 0.7))


def test_solve_zero_frozen_root():
    # 50-digit bisection oracle for (A, B) = (0.6, 0.95).
    z = solve_zero(from_ab(0.6, 0.95))
    assert z.U == pytest.approx(0.51245105701930676097, abs=1e-12)
    assert z.S == pytest.approx(2.4697310263106393522, abs=1e-12)
    assert z.residual <= 1e-12 * max(1.0, math.pi * z.S)
    assert z.V == pytest.approx(z.M, abs=1e-15)
    assert z.T == pytest.approx(-z.N, abs=1e-15)


def test_zero_carries_v_as_m_and_t_as_minus_n():
    # Both constructors keep the restricted convention, so V = M and T = -N
    # exactly; T is also -0.0 where epsilon = 0, and 0.0 at the corner.
    z = solve_zero(from_ab(0.5951822279863979, 0.9355929405964881))
    assert z.V == z.M and z.T == -z.N
    assert math.copysign(1.0, solve_zero(from_ab(0.6, 1.0)).T) == -1.0
    assert math.copysign(1.0, solve_zero(from_ab(1.0, 1.0)).T) == 1.0


def test_solve_zero_not_admissible():
    with pytest.raises(NotAdmissible):
        solve_zero(from_ab(0.5, 0.5))


def test_solve_zero_degenerate_interval():
    # At B = B0(A) the interval collapses to a point where G vanishes; the
    # solver accepts it as a root within tolerance.  (A bracket failure is
    # impossible with a nonempty interval: M(R) <= R and N(L) <= 1-L are
    # both equivalent to L <= R, which forces G(L) <= 0 <= G(R).)
    from scherk.params import threshold_b0
    a = 0.5
    b0 = threshold_b0(a)
    # Exactly at the float threshold, rounding tips the interval empty.
    with pytest.raises(NotAdmissible):
        solve_zero(from_ab(a, b0))
    params = from_ab(a, b0 + 2e-15)
    iv = admissible_interval(params)
    assert 0.0 <= iv.R - iv.L < 1e-12
    z = solve_zero(params)
    assert abs(g_s(params)(z.U)[0]) <= 1e-12


def test_solve_zero_rejects_nonpositive_tol():
    # NaN would fail the sign-change gate as if G(L) > tol, and inf would
    # switch it off; both are refused before any evaluation, on the block
    # path too.
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            solve_zero(from_ab(0.9, 0.9), tol=tol)
    params = from_ab(0.7, 0.9)
    zero = solve_zero(params)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            solve_zero_point(params, zero, tol=tol)
    block = ab_params(np.array([0.7, 0.95, 1.0]), np.array([0.9, 0.95, 1.0]),
                      ARRAY)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            evaluate_block(block, tol)


def test_a_tiny_tol_refuses_the_edge_branches():
    # At tol = 1e-12 these pairs take the degenerate-interval midpoint and
    # the G(R) < 0 end.  At tol = 1e-300 neither |G| is within tol, so
    # `solve_zero` names each refusal and `solve_zero_block` refuses both.
    pairs = [from_ab(0.09, 0.9988913694662622),
             from_ab(1.0, 1.1102230246251565e-16)]
    with pytest.raises(NoSignChange, match="degenerate interval"):
        solve_zero(pairs[0], tol=1e-300)
    with pytest.raises(NoSignChange, match=r"G\(R\) = .* is not >= -tol"):
        solve_zero(pairs[1], tol=1e-300)
    ivs = [admissible_interval(x) for x in pairs]
    block = ScherkParams(*(np.array(values) for values in zip(*pairs)))
    L, R = np.array([iv.L for iv in ivs]), np.array([iv.R for iv in ivs])
    with np.errstate(all="ignore"):
        assert solve_zero_block(block, L, R, 1e-12)[2].tolist() == [True] * 2
        assert solve_zero_block(block, L, R, 1e-300)[2].tolist() == [False] * 2


def test_solve_zero_matches_oracle_on_random_pairs(rng):
    for params in random_admissible(rng, 50, margin=1e-3):
        u_mp, s_mp = mp_scalar_root(params.A, params.B)
        z = solve_zero(params)
        assert z.U == pytest.approx(u_mp, abs=2e-12)
        assert z.S == pytest.approx(s_mp, abs=1e-10)


def test_solve_zero_within_1e15_of_oracle():
    # The Newton iteration stops at a step of a few ulps, so U is as close
    # to the 50-digit root as doubles allow, well inside 1e-15.
    for params in random_admissible(np.random.default_rng(9), 30):
        assert abs(solve_zero(params).U - mp_scalar_root(params.A, params.B)[0]
                   ) <= 1e-15, (params.A, params.B)


def _iterated(params) -> bool:
    """True where the zero comes from the Newton iteration: a sign change
    strictly inside a non-degenerate [L, R], not one of its branches."""
    iv = admissible_interval(params)
    evaluate = g_s(params)
    return (iv.R - iv.L >= 1e-15 and not params.A == params.B == 1.0
            and evaluate(iv.L)[0] <= 0.0 <= evaluate(iv.R)[0])


def test_newton_steps_on_the_grid_match_the_block_solver():
    # Every admissible pair of the 200x200 grid whose zero is iterated
    # takes at most 10 evaluations of G (5 at the median), and the block
    # solver takes the same steps to the same U, pair by pair.
    grid = 200
    pairs = [from_ab(i / grid, j / grid) for i in range(1, grid + 1)
             for j in range(1, grid + 1)]
    pairs = [x for x in pairs if admissible_interval(x).nonempty]
    ivs = [admissible_interval(x) for x in pairs]
    block = ScherkParams(*(np.array(values) for values in zip(*pairs)))
    U, _, found, steps = solve_zero_block(
        block, np.array([iv.L for iv in ivs]), np.array([iv.R for iv in ivs]),
        1e-12)
    assert found.all()
    zeros = [solve_zero(x) for x in pairs]
    assert U.tolist() == [z.U for z in zeros]
    assert steps.tolist() == [z.steps for z in zeros]
    iterated = [z.steps for x, z in zip(pairs, zeros) if _iterated(x)]
    assert len(iterated) > 5000
    assert 1 <= min(iterated) and max(iterated) <= 10
    assert np.median(iterated) == 5


def test_newton_steps_near_the_threshold_curve():
    # 1e-9 to 1e-3 above B0(A).  Near A = 1 (B0 -> 0) a Newton step from
    # the left overshoots R until bisection brings u within ~B^(1/3) of
    # the root: 14 evaluations at (1, 1e-9), the most here.
    for a in np.linspace(0.01, 1.0, 100).tolist():
        for gap in (1e-9, 1e-7, 1e-5, 1e-3):
            params = from_ab(a, min(1.0, threshold_b0(a) + gap))
            if admissible_interval(params).nonempty:
                assert solve_zero(params).steps <= 16, (a, gap)


def test_zero_does_not_depend_on_tol(rng):
    # tol gates the sign change only; U is the same wherever both pass.
    pairs = random_admissible(rng, 200)
    pairs += [from_ab(a, threshold_b0(a) + gap) for a in (0.3, 0.5, 0.9)
              for gap in (1e-9, 1e-6, 1e-3)]
    for params in pairs:
        try:
            fine, coarse = solve_zero(params, 1e-12), solve_zero(params, 1e-6)
        except (NoSignChange, NotAdmissible):
            continue
        assert fine.U == coarse.U, (params.A, params.B)
        assert fine.steps == coarse.steps


def test_step_limit_record_describes_its_u(monkeypatch, rng):
    # A solve cut by the step limit evaluates once more at the U it
    # returns, so its residual, S, M and N all belong to that U.
    monkeypatch.setattr("scherk.scalar._MAX_STEPS", 2)
    cut = 0
    for params in random_admissible(rng, 100):
        z = solve_zero(params)
        g, s, m, n = g_s(params)(z.U)
        assert (z.residual, z.S, z.M, z.N, z.V, z.T) == (abs(g), s, m, n,
                                                         m, -n)
        cut += z.steps == 2
    assert cut > 50


def test_monotonicity_on_admissible_interval(rng):
    for params in random_admissible(rng, 1000):
        iv = admissible_interval(params)
        u1, u2 = sorted(rng.uniform(iv.L, iv.R, 2))
        if u1 == u2:
            continue
        evaluate = g_s(params)
        assert evaluate(u1)[0] < evaluate(u2)[0] + 1e-15


def test_root_bracketing_and_mn_bounds(rng):
    for params in random_admissible(rng, 300):
        iv = admissible_interval(params)
        z = solve_zero(params)
        assert iv.L - 1e-12 <= z.U <= iv.R + 1e-12
        assert -1e-12 <= z.M <= 0.5 + 1e-12
        assert -1e-12 <= z.N <= 0.5 + 1e-12
        assert z.M <= min(z.U, 0.5) + 1e-9
        assert z.N <= min(1 - z.U, 0.5) + 1e-9


def test_derivative_matches_finite_difference(rng):
    h = 1e-5
    for params in random_admissible(rng, 200):
        iv = admissible_interval(params)
        u = float(rng.uniform(iv.L + h, iv.R - h)) if iv.R - iv.L > 2 * h \
            else 0.5
        evaluate = g_s(params)
        fd = (evaluate(u + h)[0] - evaluate(u - h)[0]) / (2 * h)
        exact = math.pi * evaluate(u)[1]
        assert fd == pytest.approx(exact, rel=1e-7)


def test_swap_relation_between_roots(rng):
    tol = 1e-12
    for params in random_admissible(rng, 200, margin=1e-6):
        z = solve_zero(params, tol)
        swapped = from_ab(params.B, params.A)
        g_sw = g_s(swapped)(1.0 - z.U)[0]
        assert abs(g_sw + g_s(params)(z.U)[0]) < 1e-12
        z_sw = solve_zero(swapped, tol)
        assert abs(z_sw.U - (1.0 - z.U)) < 2 * 1e-9


def test_derivative_inequality_examples():
    # The margin S - sigma at the zero, within the scalar band that bounds
    # it from below; exactly 0 at the corner.
    for (a, b), margin in (((1.0, 1.0), 0.0),
                           ((0.95, 0.95), 0.25614652394668535395),
                           ((0.6, 0.95), 0.69772651164370431196)):
        rec = evaluate_pair(from_ab(a, b))
        assert rec.margin == pytest.approx(margin, abs=1e-12 if margin else 0)
        assert rec.margin >= 0.0 and named_check(rec.params, "band_scalar").ok


def test_barrier_chain_generic_pair():
    params = from_ab(0.6, 0.95)
    zero, evaluate = solve_zero(params), g_s(params)
    u_star = barrier_point(params)
    assert u_star >= 0.5 - 1e-12
    if u_star < interval_R(*params[:4]):
        assert evaluate(u_star)[0] >= -1e-12
    assert min(linear_estimates(params, zero)) >= 0.5 * sigma(params) - 1e-12
    swapped = g_s(from_ab(0.95, 0.6))(1.0 - zero.U)[0]
    assert abs(swapped + evaluate(zero.U)[0]) < 1e-12


def test_barrier_chain_equality_corner():
    params = from_ab(1.0, 1.0)
    assert sigma(params) == 2.0 and barrier_point(params) == 0.5
    if 0.5 < interval_R(*params[:4]):
        assert g_s(params)(0.5)[0] >= -1e-12
    assert min(linear_estimates(params, solve_zero(params))) >= 1.0 - 1e-12


def test_hr_identity_exact():
    # H_R = B*(2+A*B-A^2)*(P-U), on which the barrier chain's floats in
    # the two tests above and acceptance criterion 6 rest, for all pairs
    # and all U, proved on rational functions of (A, B).
    assert prove_identities()["h_r"]


def test_sharp_margin_on_grid():
    n, slack = 60, 1e-9
    seen_near_zero = False
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            params = from_ab(i / n, j / n)
            if not admissible_interval(params).nonempty:
                continue
            rec = evaluate_pair(params)
            assert rec.margin >= -slack, (params.A, params.B, rec.margin)
            if rec.margin < 1e-6:
                seen_near_zero = True
    assert seen_near_zero  # margin -> 0 toward (1, 1)
