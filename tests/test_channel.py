import dataclasses
import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import CODE1_ROWS, CODE1_V, NET34_ROWS, NET34_V, simulate_rounds_reference
from netcode.channel import (
    FadingModel,
    SncPolicy,
    combine_reliability,
    link_error_prob,
    simulate_rounds,
    snc_threshold,
)
from netcode.design import code_for_requirements, network_code, repetition_code
from netcode.gf2 import BitMatrix

RNG = lambda s: np.random.default_rng(s)


# ------------------------------------------------------------ scalar helpers

def test_link_error_prob_is_gaussian_tail():
    """link_error_prob(x^2 / 2) = Q(x) for x >= 0."""
    assert link_error_prob(0.5) == pytest.approx(0.15865525393145707, abs=1e-12)


def test_link_error_prob_matches_quadrature():
    for x in [0.0, 0.3, 1.0, 2.5, 4.0]:
        integral, _ = quad(
            lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), x, np.inf)
        assert link_error_prob(x * x / 2) == pytest.approx(integral, rel=1e-9)


def test_link_error_prob_values():
    assert link_error_prob(0.0) == pytest.approx(0.5)
    assert link_error_prob(1.0) == pytest.approx(0.5 * math.erfc(1.0))
    assert link_error_prob(1.0) == pytest.approx(0.0786496, abs=1e-6)
    with pytest.raises(ValueError):
        link_error_prob(-0.1)
    # NaN is no SNR, alone or inside an array
    for bad in (np.nan, [0.5, np.nan], [[np.nan, -1.0]]):
        with pytest.raises(ValueError, match="non-negative"):
            link_error_prob(bad)
    # empty and 0-d inputs keep their shapes
    assert link_error_prob([]).shape == (0,)
    assert link_error_prob(np.zeros((2, 0))).shape == (2, 0)
    assert type(link_error_prob(np.float64(1.0))) is np.float64


def test_snc_threshold_values():
    assert snc_threshold(1.0) == pytest.approx(0.5 * (1 - math.sqrt(0.5)), abs=1e-12)
    assert snc_threshold(1.0) == pytest.approx(0.14644660940672627)
    with pytest.raises(ValueError):
        snc_threshold(0.0)
    # an infinite mean SNR gave NaN, and selective encoding then dropped
    # every detection, since p < NaN is False
    for bad in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError, match="positive and finite"):
            snc_threshold(bad)


def test_snc_threshold_does_not_cancel(net34):
    """0.5 (1 - sqrt(m/(1+m))) computed without cancellation: within
    1e-15 relative of a 60-digit reference up to 150 dB, and still
    positive at 170 dB, where selective encoding keeps every detection."""
    with localcontext() as ctx:
        ctx.prec = 60
        for db in (0, 30, 100, 150):
            m = 10.0 ** (db / 10)
            want = (1 - (Decimal(m) / (1 + Decimal(m))).sqrt()) / 2
            assert abs(Decimal(snc_threshold(m)) - want) / want < Decimal("1e-15"), db
    assert snc_threshold(1e17) > 0
    batch = simulate_rounds(net34, FadingModel("block_iid", 1e17), SncPolicy(True),
                            RNG(16), 400)
    assert batch.pair_kept.all()


def test_snc_threshold_is_mean_of_link_error_prob():
    """The threshold equals E[Q(sqrt(2 gamma))] over the exponential SNR
    distribution (numerical quadrature oracle)."""
    for mean_snr in [0.5, 1.0, 4.0, 10.0]:
        integral, _ = quad(
            lambda g: float(link_error_prob(g)) * math.exp(-g / mean_snr) / mean_snr,
            0, np.inf)
        assert snc_threshold(mean_snr) == pytest.approx(integral, rel=1e-8)


def test_combine_reliability_examples():
    assert combine_reliability([]) == pytest.approx(0.0)
    assert combine_reliability([0.1]) == pytest.approx(0.1)
    assert combine_reliability([0.1, 0.2]) == pytest.approx(0.26)
    assert combine_reliability([0.5, 0.0]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        combine_reliability([0.6])
    with pytest.raises(ValueError):
        combine_reliability([-0.1])
    for bad in ([np.nan], [0.1, np.nan], [[0.1, 0.2], [np.nan, 0.0]]):
        with pytest.raises(ValueError, match=r"in \[0, 1/2\]"):
            combine_reliability(bad)
    # no detections: an empty row combines to no error
    assert np.array_equal(combine_reliability(np.zeros((3, 0))), np.zeros(3))


def test_combine_reliability_matches_bernoulli_oracle():
    """Exhaustive XOR-of-independent-Bernoullis probability, up to 4 terms."""
    rng = RNG(20)
    for _ in range(100):
        m = int(rng.integers(0, 5))
        ps = rng.uniform(0, 0.5, m)
        odd = 0.0
        for bits in itertools.product([0, 1], repeat=m):
            if sum(bits) % 2 == 1:
                prob = 1.0
                for b, p in zip(bits, ps):
                    prob *= p if b else 1 - p
                odd += prob
        assert combine_reliability(ps.tolist()) == pytest.approx(odd, abs=1e-12)
    # a 2-D input is reduced over its last axis, one combination per row
    ps = rng.uniform(0, 0.5, (6, 3))
    got = combine_reliability(ps)
    assert got.shape == (6,)
    for row, p in zip(ps, got):
        odd = sum(math.prod(q if b else 1 - q for b, q in zip(bits, row))
                  for bits in itertools.product([0, 1], repeat=3) if sum(bits) % 2)
        assert p == pytest.approx(odd, abs=1e-12)


def test_combine_reliability_is_relatively_accurate():
    """Against exact rationals, on rows of 1-5 detections with p
    log-uniform from 1e-300 to 1/2: a result far below the float epsilon
    keeps its relative accuracy, and a single detection's p comes through
    exactly.  (1 - prod(1 - 2p)) / 2 reads 0 below about 1.1e-16, a
    relative error of 1."""
    rng = RNG(26)
    worst = 0.0
    for m in range(1, 6):
        ps = 10.0 ** rng.uniform(-300, math.log10(0.5), (400, m))
        got = combine_reliability(ps)
        for row, value in zip(ps, got):
            prod = math.prod(1 - 2 * Fraction(p) for p in row)
            exact = (1 - prod) / 2
            worst = max(worst, abs(Fraction(value) - exact) / exact)
    assert worst < 1e-15
    for p in (1e-17, 5e-324, 0.3, 0.5):
        assert combine_reliability([p]) == p
    assert combine_reliability([1e-17, 0.0, 1e-200]) > 0


# ------------------------------------------------------------- configuration

def test_fading_model_validation():
    FadingModel("block_iid", 2.0)
    FadingModel("per_source_static", 1.0)
    with pytest.raises(ValueError):
        FadingModel("other", 1.0)
    with pytest.raises(ValueError):
        FadingModel("block_iid", 0.0)
    for bad in (np.inf, np.nan, -2.0):
        with pytest.raises(ValueError, match="positive and finite"):
            FadingModel("block_iid", bad)


def test_relay_pairs_examples(net34, rep36, code1, code3):
    # 3x4 network: node 3 detects source 1 (slot 2), node 2 detects
    # source 1 (slot 3)
    assert list(net34.relay_pairs) == [(0, 2), (0, 3)]
    assert list(rep36.relay_pairs) == []
    assert list(code1.relay_pairs) == [(0, 2), (1, 3), (2, 1)]
    assert list(code3.relay_pairs) == [(0, 2), (1, 1), (1, 3), (2, 1)]
    # each slot indexes the detections its relay combines there
    assert net34.slot_pairs == ((), (), (1,), (0,))
    assert rep36.slot_pairs == ((),) * 6
    assert code3.slot_pairs == ((), (), (), (3,), (0,), (2,), (1, 3))


# ----------------------------------------------------------------- mechanics

def test_simulate_rejects_invalid_schedule(net34):
    from netcode.design import network_code

    bad = network_code(net34.G, [2, 2, 3, 2])
    with pytest.raises(ValueError):
        simulate_rounds(bad, FadingModel(), SncPolicy(), RNG(0), 4)


def test_simulate_round_shapes(code1):
    batch = simulate_rounds(code1, FadingModel(), SncPolicy(), RNG(0), 1)
    assert len(batch) == 1
    assert batch.u.shape == (1, 3)
    assert batch.c.shape == (1, 6) and batch.e.shape == (1, 6)
    assert batch.p_e.shape == batch.h.shape == batch.y.shape == (1, 6)
    assert batch.g_eff.shape == (1, 3, 6)
    assert ((batch.c ^ batch.e) == batch.c_hat).all()
    assert batch.pairs == list(code1.relay_pairs)


def test_codeword_consistent_with_effective_generator(code1):
    batch = simulate_rounds(code1, FadingModel(), SncPolicy(True), RNG(1), 200)
    expect = np.einsum("bk,bkn->bn", batch.u.astype(int),
                       batch.g_eff.astype(int)) % 2
    assert (batch.c == expect).all()
    assert (batch.c_hat == (batch.c ^ batch.e)).all()


def test_identity_code_has_no_relay_errors(rep36):
    batch = simulate_rounds(rep36, FadingModel(), SncPolicy(), RNG(2), 500)
    assert (batch.p_e == 0).all()
    assert (batch.e == 0).all()
    assert batch.pair_err_prob.shape == (500, 0)


def test_genie_rounds_are_error_free(code1):
    batch = simulate_rounds(code1, FadingModel(), SncPolicy(), RNG(3), 500,
                            genie=True)
    assert batch.error_free
    assert (batch.e == 0).all()
    assert (batch.p_e == 0).all()
    assert (batch.g_eff == code1.G.to_array()[None]).all()


def test_genie_rounds_ignore_selective_encoding(net34):
    """Genie detections are error-free, below the SNC threshold, so the
    SNC rule keeps them all and the rounds equal those without SNC."""
    fading = FadingModel("block_iid", 3.0)
    on = simulate_rounds(net34, fading, SncPolicy(True), RNG(15), 400, genie=True)
    off = simulate_rounds(net34, fading, SncPolicy(False), RNG(15), 400, genie=True)
    assert on.pair_kept.all()
    for name, value in on.__dict__.items():
        assert np.array_equal(value, off.__dict__[name]), name


def test_single_relay_slot_reliability_collapses(net34):
    """A slot combining exactly one foreign source carries that pair's
    instantaneous error probability unchanged."""
    batch = simulate_rounds(net34, FadingModel(), SncPolicy(), RNG(4), 300)
    idx = {p: i for i, p in enumerate(batch.pairs)}
    assert np.allclose(batch.p_e[:, 2], batch.pair_err_prob[:, idx[(0, 3)]])
    assert np.allclose(batch.p_e[:, 3], batch.pair_err_prob[:, idx[(0, 2)]])
    # slots carrying only the owner's own symbol are error-free
    assert (batch.p_e[:, :2] == 0).all()


def test_two_detection_slot_reliability_combines(code3):
    """The final slot of the 3x7 code combines two foreign detections at
    node 1; its reliability is the odd-error probability of the pair."""
    batch = simulate_rounds(code3, FadingModel(), SncPolicy(), RNG(4), 300)
    idx = {p: i for i, p in enumerate(batch.pairs)}
    p2 = batch.pair_err_prob[:, idx[(1, 1)]]
    p3 = batch.pair_err_prob[:, idx[(2, 1)]]
    expect = (1 - (1 - 2 * p2) * (1 - 2 * p3)) / 2
    assert np.allclose(batch.p_e[:, 6], expect)
    assert (batch.e[:, 6] == (batch.pair_err[:, idx[(1, 1)]]
                              ^ batch.pair_err[:, idx[(2, 1)]])).all()


def test_realized_errors_match_probabilities(code1):
    """Realized slot error rate tracks the mean reported reliability."""
    batch = simulate_rounds(code1, FadingModel("block_iid", 1.0), SncPolicy(),
                            RNG(5), 200_000)
    for j in range(3, 6):
        emp = batch.e[:, j].mean()
        mean_p = batch.p_e[:, j].mean()
        sigma = batch.e[:, j].std() / math.sqrt(len(batch))
        assert emp == pytest.approx(mean_p, abs=4 * sigma + 1e-4)


def test_reliability_calibration_binned(code1):
    """Conditioned on the reported p_e, the realized error frequency
    matches it (calibration of the reliability channel)."""
    batch = simulate_rounds(code1, FadingModel("block_iid", 1.0), SncPolicy(),
                            RNG(6), 400_000)
    p = batch.p_e[:, 3]
    e = batch.e[:, 3]
    for lo in np.arange(0.0, 0.5, 0.05):
        sel = (p >= lo) & (p < lo + 0.05)
        if sel.sum() < 2000:
            continue
        expect = p[sel].mean()
        emp = e[sel].mean()
        sigma = math.sqrt(expect * (1 - expect) / sel.sum())
        assert emp == pytest.approx(expect, abs=4 * sigma + 1e-3)


def test_fading_gain_statistics(code1):
    """Destination gains are complex Gaussian with E|h|^2 = mean SNR."""
    for snr in [0.5, 4.0]:
        batch = simulate_rounds(code1, FadingModel("block_iid", snr),
                                SncPolicy(), RNG(7), 200_000)
        power = np.abs(batch.h) ** 2
        assert power.mean() == pytest.approx(snr, rel=0.01)
        # exponential power distribution: std equals the mean
        assert power.std() == pytest.approx(snr, rel=0.02)
        assert batch.h.real.mean() == pytest.approx(0.0, abs=0.01 * math.sqrt(snr))


def test_noise_statistics(rep36):
    """With unit-energy symbols subtracted, residual noise is CN(0, 1)."""
    batch = simulate_rounds(rep36, FadingModel("block_iid", 1.0), SncPolicy(),
                            RNG(8), 100_000)
    w = batch.y - batch.h * (1.0 - 2.0 * batch.c_hat)
    assert (np.abs(w) ** 2).mean() == pytest.approx(1.0, rel=0.02)
    assert w.real.var() == pytest.approx(0.5, rel=0.03)
    assert w.imag.var() == pytest.approx(0.5, rel=0.03)


def test_per_source_static_fading_ties_slots(code1):
    batch = simulate_rounds(code1, FadingModel("per_source_static", 1.0),
                            SncPolicy(), RNG(9), 100)
    v = code1.v
    for j1 in range(code1.n):
        for j2 in range(j1 + 1, code1.n):
            same = v[j1] == v[j2]
            equal = np.allclose(batch.h[:, j1], batch.h[:, j2])
            assert equal == same


def test_block_iid_fading_slots_independent(code1):
    batch = simulate_rounds(code1, FadingModel("block_iid", 1.0),
                            SncPolicy(), RNG(10), 100)
    for j1 in range(code1.n):
        for j2 in range(j1 + 1, code1.n):
            assert not np.allclose(batch.h[:, j1], batch.h[:, j2])


# ----------------------------------------------------------------- selective

def test_snc_drop_threshold(code1):
    batch = simulate_rounds(code1, FadingModel("block_iid", 1.0),
                            SncPolicy(True), RNG(11), 50_000)
    th = snc_threshold(1.0)
    assert (batch.pair_kept == (batch.pair_err_prob < th)).all()
    # dropped detections never contribute errors or reliability mass
    idx = {p: i for i, p in enumerate(batch.pairs)}
    G = code1.G.to_array()
    for j in range(code1.n):
        relay = code1.v[j]
        for i in range(code1.k):
            if i == relay - 1 or not G[i, j]:
                continue
            kept = batch.pair_kept[:, idx[(i, relay)]]
            assert (batch.g_eff[:, i, j] == kept.astype(np.uint8)).all()


def test_snc_disabled_keeps_everything(code1):
    batch = simulate_rounds(code1, FadingModel("block_iid", 1.0),
                            SncPolicy(False), RNG(12), 10_000)
    assert batch.pair_kept.all()
    assert (batch.g_eff == code1.G.to_array()[None]).all()


def test_snc_caps_reported_reliability(code1):
    """With selective encoding every surviving detection has error
    probability below the threshold, so each slot reliability stays below
    the degree-m combination bound."""
    th = snc_threshold(1.0)
    batch = simulate_rounds(code1, FadingModel("block_iid", 1.0),
                            SncPolicy(True), RNG(13), 50_000)
    cap2 = (1 - (1 - 2 * th) ** 2) / 2  # at most 2 foreign sources per slot
    assert (batch.p_e < cap2 + 1e-12).all()


def test_snc_drop_rate_matches_analytic(code1):
    """Fraction of detections dropped equals P(gamma <= g0) where the
    instantaneous error probability at g0 equals the threshold."""
    batch = simulate_rounds(code1, FadingModel("block_iid", 1.0),
                            SncPolicy(True), RNG(14), 100_000)
    frac = 1.0 - batch.pair_kept.mean()
    from scipy.stats import norm

    g0 = norm.isf(snc_threshold(1.0)) ** 2 / 2
    assert frac == pytest.approx(1.0 - math.exp(-g0), abs=0.01)


# ------------------------------------------------------------ reproducibility

def test_simulation_is_seed_deterministic(code1):
    a = simulate_rounds(code1, FadingModel(), SncPolicy(True), RNG(42), 1000)
    b = simulate_rounds(code1, FadingModel(), SncPolicy(True), RNG(42), 1000)
    assert (a.u == b.u).all()
    assert (a.e == b.e).all()
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.p_e, b.p_e)


REFERENCE_CODES = {
    "net34": lambda: network_code(BitMatrix.from_rows(NET34_ROWS), NET34_V),
    "code1": lambda: network_code(BitMatrix.from_rows(CODE1_ROWS), CODE1_V),
    "k10": lambda: code_for_requirements(10, 3),
    "rep37": lambda: repetition_code(3, 7),
}


@pytest.mark.parametrize("genie", [False, True])
@pytest.mark.parametrize("snc", [False, True])
@pytest.mark.parametrize("mode", ["block_iid", "per_source_static"])
@pytest.mark.parametrize("name", sorted(REFERENCE_CODES))
def test_simulation_equals_reference_byte_for_byte(name, mode, snc, genie):
    """Every RoundBatch field equals the complex-arithmetic reference in
    bytes, dtype, shape and strides, and both leave the generator in the
    same state, so the draws keep their order."""
    code = REFERENCE_CODES[name]()
    fading = FadingModel(mode, 10.0 ** 0.8)
    rng, ref_rng = RNG(44), RNG(44)
    got = simulate_rounds(code, fading, SncPolicy(snc), rng, 300, genie=genie)
    want = simulate_rounds_reference(code, fading, SncPolicy(snc), ref_rng, 300,
                                     genie=genie)
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides), field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name
    assert rng.bit_generator.state == ref_rng.bit_generator.state
