import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bisect
from dividend2d import (
    AnalyticDomainError,
    BarrierSpec,
    ExponentialClaims,
    ModelParams,
    NonConvergenceError,
    ParameterError,
    build_sequences,
    sequences_for,
    sequences_to_csv,
)
from dividend2d import gammas, tables
from dividend2d.gammas import (
    asymptotic_ratio_violations,
    invariant_violations,
    sqeq_residual,
)

# frozen from the bisection oracles below (tol 1e-14)
G2_INITIAL_BASE = 0.034960438522586096
G2_INITIAL_PRIMED = 0.20884538687251591
G2_AFTER_ONE_ADVANCE = 2.210159419747077


def _seed_quadratic(m, params):
    alpha = params.claims.rate
    A = (m * m + m) * params.c1 + (1.0 + m) * params.c2
    B = m * (alpha * params.c1 - params.q - params.lam) + alpha * params.c2 - params.q - params.lam
    return lambda g: A * g * g + B * g - alpha * params.q


def test_gamma2_initial_matches_bisection_oracle(params, barrier):
    g2 = sequences_for(barrier, params).g2
    assert g2[0, 0] == pytest.approx(G2_INITIAL_BASE, rel=1e-12)
    assert bisect(_seed_quadratic(0.1, params), 1e-12, 10.0) == pytest.approx(g2[0, 0], rel=1e-10)

    a_prime = (0.1 - params.c2) / (params.c1 + 1.0)
    assert g2[1, 0] == pytest.approx(G2_INITIAL_PRIMED, rel=1e-12)
    assert bisect(_seed_quadratic(a_prime, params), 1e-12, 10.0) == pytest.approx(g2[1, 0], rel=1e-10)


def test_gamma2_initial_positive_and_exact_root(params, barrier):
    seqs = sequences_for(barrier, params)
    for m, root in ((0.1, seqs.g2[0, 0]), (seqs.a_prime, seqs.g2[1, 0])):
        assert root > 0.0
        f = _seed_quadratic(m, params)
        scale = abs(f(0.0)) + abs(root)
        assert abs(f(root)) < 1e-12 * max(scale, 1.0)


def test_gamma2_initial_rejects_bad_leading_coefficient(params):
    # slope -0.9 makes (m^2+m)c1 + (1+m)c2 negative for these rates
    with pytest.raises(ParameterError, match="leading coefficient"):
        gammas._step(None, -0.9, params)


def test_solve_g1_g3_reproduces_seed_identity(params, barrier):
    seqs = sequences_for(barrier, params)
    g1, g2, g3 = seqs.g1[0, 0], seqs.g2[0, 0], seqs.g3[0, 0]
    assert g1 == pytest.approx(0.1 * g2, rel=1e-9)
    assert g3 < 0.0 < g1
    assert sqeq_residual(g1, g2, params) < 1e-9
    assert sqeq_residual(g3, g2, params) < 1e-9


def test_advance_matches_bisection_oracle(params, barrier):
    seqs = sequences_for(barrier, params)
    step0 = seqs.steps[0]
    nxt = seqs.g2[0, 1]
    assert nxt == pytest.approx(G2_AFTER_ONE_ADVANCE, rel=1e-12)

    # oracle: bisection on the linkage-substituted quadratic above g2_0
    alpha = params.claims.rate
    s = step0.g3 - barrier.a * step0.g2
    a = barrier.a
    A2 = (a * a + a) * params.c1 + (1.0 + a) * params.c2
    B2 = s * (2 * params.c1 * a + params.c1 + params.c2) - (params.lam + params.q) * (1 + a) + alpha * (
        a * params.c1 + params.c2
    )
    C2 = params.c1 * s * s + (params.c1 * alpha - params.lam - params.q) * s - alpha * params.q
    f = lambda g: A2 * g * g + B2 * g + C2
    assert bisect(f, step0.g2 + 1e-9, step0.g2 + 100.0) == pytest.approx(nxt, rel=1e-10)


def test_advance_monotone_over_twenty_steps(params, barrier):
    seqs = sequences_for(barrier, params, min_terms=21)
    g2s = [s.g2 for s in seqs.steps[:21]]
    assert all(b > a for a, b in zip(g2s, g2s[1:]))


def test_build_sequences_invariants_all_slopes(params):
    for a in (0.1, 0.2, 0.5, 1.0):
        bar = BarrierSpec.reflection(a, 14.0, params)
        seqs = build_sequences(bar, params, min_terms=60)
        assert invariant_violations(seqs, params) == []
        assert seqs.primed_steps[0].D == pytest.approx(1.0, abs=1e-12)
        assert math.isfinite(seqs.E)


def test_corner_sum_terms_shrink(params, barrier):
    # d'Alembert-style decay of the terms defining the matching constant
    seqs = sequences_for(barrier, params, min_terms=40)
    alpha = params.claims.rate
    g1, g2, g3, ds = seqs.g1[0], seqs.g2[0], seqs.g3[0], seqs.D_scaled[0]
    terms = np.abs(ds * (g1 - g3) / (g1 + g2 + alpha))
    ratios = terms[1:] / terms[:-1]
    assert ratios[30] < ratios[5]
    assert ratios[30] < 1e-2


def test_asymptotic_ratios_at_k40(params):
    for a in (0.1, 0.2, 0.5, 1.0):
        bar = BarrierSpec.reflection(a, 14.0, params)
        seqs = sequences_for(bar, params, min_terms=60)
        assert asymptotic_ratio_violations(seqs, params, k=40, rtol=0.01) == []


@pytest.fixture
def max_terms(monkeypatch):
    """Sets ``gammas._MAX_TERMS`` for one test; the slopes it grows are
    dropped before and after."""
    def set_to(n):
        monkeypatch.setattr(gammas, "_MAX_TERMS", n)
        gammas._slope.cache_clear()
    yield set_to
    gammas._slope.cache_clear()


def test_nonconvergence_reported(params, barrier, max_terms):
    max_terms(4)
    with pytest.raises(NonConvergenceError, match="not converged in 4 terms"):
        build_sequences(barrier, params)


@pytest.mark.parametrize("min_terms", [1, gammas._MAX_TERMS + 1])
def test_min_terms_outside_the_term_range_is_rejected(params, barrier, min_terms):
    with pytest.raises(ParameterError, match="min_terms"):
        build_sequences(barrier, params, min_terms=min_terms)


def test_barrier_of_another_model_is_rejected_as_v1_barrier_rejects_it(params):
    # the series rule is stated once: the sequences and the valuation both
    # raise ParameterError for a barrier that pays another model's rate
    other = BarrierSpec.reflection(0.1, 14.0, dataclasses.replace(params, c1=5.0))
    for build in (build_sequences, sequences_for):
        with pytest.raises(ParameterError, match="delta0 = .* violated"):
            build(other, params)


def test_csv_round_trip(params, barrier):
    seqs = sequences_for(barrier, params)
    dump = sequences_to_csv(seqs)
    lines = dump.strip().splitlines()
    assert lines[0] == "k,g1,g2,g3,D,g1p,g2p,g3p,Dp"
    assert len(lines) == len(seqs.steps) + 1
    rows = [line.split(",") for line in lines[1:]]
    g2s = [float(r[2]) for r in rows]
    assert all(b > a for a, b in zip(g2s, g2s[1:]))
    assert float(rows[0][4]) == pytest.approx(seqs.steps[0].D, rel=1e-15)


def test_cache_returns_same_object(params, barrier):
    assert sequences_for(barrier, params) is sequences_for(barrier, params)


@st.composite
def valid_setups(draw):
    c2 = draw(st.floats(0.8, 6.0))
    c1 = c2 * draw(st.floats(1.1, 3.0))
    alpha = draw(st.floats(0.4, 4.0))
    lam = c2 * alpha * draw(st.floats(0.1, 0.85))
    q = draw(st.floats(0.02, 0.8))
    a = c2 * draw(st.floats(0.05, 0.85))
    params = ModelParams(c1=c1, c2=c2, lam=lam, claims=ExponentialClaims(alpha), q=q)
    return params, BarrierSpec.reflection(a, 8.0, params)


# ---------------------------------------------------------------------------
# per-slope families: a barrier's sequences do not depend on what the
# slope's cache held before it

DATA = Path(__file__).parent / "data"


def _cold(bar, params, **kw):
    gammas._slope.cache_clear()
    return build_sequences(bar, params, **kw)


def _assert_identical(x, y):
    for f in ("g1", "g2", "g3", "D", "D_scaled"):
        fx, fy = getattr(x, f), getattr(y, f)
        assert fx.shape == fy.shape and fx.tobytes() == fy.tobytes(), f
        assert fx.flags.c_contiguous and not fx.flags.writeable, f
    for f in ("E", "a_prime", "a", "b", "tail_ratio", "key"):
        assert repr(getattr(x, f)) == repr(getattr(y, f)), f


@settings(deadline=None, max_examples=40)
@given(valid_setups(), st.floats(1.0, 40.0), st.floats(1.0, 40.0))
def test_build_after_another_barrier_of_the_slope_equals_a_cold_build(setup, b1, b2):
    params, bar = setup
    bar1, bar2 = BarrierSpec.reflection(bar.a, b1, params), BarrierSpec.reflection(bar.a, b2, params)
    _cold(bar1, params)
    warm = build_sequences(bar2, params)
    _assert_identical(warm, _cold(bar2, params))


@settings(deadline=None, max_examples=40)
@given(valid_setups(), st.lists(st.floats(1.0, 400.0), min_size=1, max_size=6))
def test_a_row_of_heights_equals_one_build_per_height(setup, heights):
    # the barrier axis leads: every height's coefficients, E and error are
    # what build_sequences gives that height alone (a large b overflows
    # exp(g2*b))
    params, bar = setup
    bars = [BarrierSpec.reflection(bar.a, b, params) for b in heights]
    row = gammas.build_row(bars, params)
    assert row.D_scaled.shape == (len(bars), *row.g2.shape)
    for i, one in enumerate(bars):
        try:
            seqs = build_sequences(one, params)
        except (AnalyticDomainError, NonConvergenceError) as exc:
            assert type(row.errors[i]) is type(exc) and str(row.errors[i]) == str(exc)
            assert np.isnan(row.D_scaled[i]).all() and np.isnan(row.E[i, 0])
            continue
        assert row.errors[i] is None
        for f in ("g1", "g2", "g3"):
            assert getattr(row, f).tobytes() == getattr(seqs, f).tobytes(), f
        assert row.D_scaled[i].tobytes() == seqs.D_scaled.tobytes()
        assert (row.E[i, 0], row.b[i, 0, 0], row.tail_ratio) == (seqs.E, seqs.b, seqs.tail_ratio)


def test_a_row_needs_one_slope(params):
    bars = [BarrierSpec.reflection(a, 14.0, params) for a in (0.1, 0.2)]
    with pytest.raises(ParameterError, match="one slope"):
        gammas.build_row(bars, params)


@pytest.mark.parametrize("min_terms", [
    lambda terms: 60,
    lambda terms: 2 * terms,
])
def test_build_that_outgrows_the_cached_slope_equals_a_cold_build(params, min_terms):
    for a, b in ((0.1, 14.0), (0.9, 1.8)):
        bar = BarrierSpec.reflection(a, b, params)
        short = _cold(bar, params)
        m = min_terms(len(short.steps))
        longer = build_sequences(bar, params, min_terms=m)
        assert len(longer.steps) > len(short.steps)
        _assert_identical(longer, _cold(bar, params, min_terms=m))


def test_nonconvergence_message_is_the_same_cold_and_warm(params, barrier, max_terms):
    # the second build reads the slope the first one grew and left failing
    message = "corner sums not converged in 3 terms (tail ratio 1.06e-01)"
    max_terms(3)
    with pytest.raises(NonConvergenceError) as cold:
        build_sequences(barrier, params)
    with pytest.raises(NonConvergenceError) as warm:
        build_sequences(barrier, params)
    assert str(cold.value) == str(warm.value) == message


# the b values of tables 1-2 at each of their slopes, and a grid of b at
# table 3's slope
_TABLE_BARRIERS = [
    *((a, tables.TABLE1_B) for a in tables.TABLE1_A),
    (tables.TABLE3_BARRIER[0], [0.2 * i for i in range(1, 41)]),
]


@pytest.mark.parametrize("a, bs", _TABLE_BARRIERS)
def test_every_barrier_of_a_slope_keeps_the_same_terms(params, a, bs):
    gammas._slope.cache_clear()
    terms = {len(build_sequences(BarrierSpec.reflection(a, b, params), params).steps) for b in bs}
    assert len(terms) == 1


@pytest.mark.parametrize("a, b, name", [(0.1, 14.0, "gammas_a0.1_b14.csv"),
                                        (0.9, 1.8, "gammas_a0.9_b1.8.csv")])
def test_csv_dump_is_pinned(params, a, b, name):
    # frozen from the sequences as built step by step before the per-slope cache
    expected = (DATA / name).read_text()
    bar = BarrierSpec.reflection(a, b, params)
    assert sequences_to_csv(_cold(bar, params)) == expected
    gammas._slope.cache_clear()
    build_sequences(BarrierSpec.reflection(a, 2.0 * b, params), params, min_terms=40)
    assert sequences_to_csv(build_sequences(bar, params)) == expected


@settings(deadline=None, max_examples=40)
@given(valid_setups())
def test_family_invariants_hold_generically(setup):
    params, bar = setup
    seqs = build_sequences(bar, params, min_terms=8)
    assert invariant_violations(seqs, params) == []
