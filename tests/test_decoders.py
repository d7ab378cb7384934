import math
import pickle
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

import netcode.decoders
from netcode.channel import FadingModel, SncPolicy, simulate_rounds
from netcode.decoders import (
    MAP_SIZE_LIMIT,
    channel_llr,
    decode_with_mode_batch,
    llr_chat,
    map_decode_batch,
    sp_decode_batch,
)
from netcode.design import code_for_requirements, network_code, repetition_code
from netcode.gf2 import BitMatrix
from netcode.harness import SimConfig

from conftest import map_oracle, sp_flooding_reference, sp_oracle

RNG = lambda s: np.random.default_rng(s)


def _random_code(rng, k_max=3, n_max=6):
    """Random small valid network code for oracle comparisons."""
    while True:
        k = int(rng.integers(1, k_max + 1))
        n = int(rng.integers(k, n_max + 1))
        rows = np.eye(k, n, dtype=int)
        rows[:, k:] = rng.integers(0, 2, (k, n - k))
        if (rows.sum(axis=0) == 0).any():
            continue  # empty combined slot has no eligible transmitter
        G = BitMatrix.from_rows(rows.tolist())
        v = [min(i + 1, k) for i in range(k)]
        for j in range(k, n):
            cand = [i + 1 for i in range(k) if rows[i, j]]
            v.append(int(rng.choice(cand)))
        return network_code(G, v)


# ---------------------------------------------------------------- structure

def test_parity_checks_annihilate_codewords(code1):
    """[u | uG] satisfies every check of the Tanner graph: the sources of
    check j XOR to coded bit j."""
    G = code1.G.to_array().astype(int)
    for u_int in range(8):
        u = np.array([(u_int >> i) & 1 for i in range(3)])
        c = (u @ G) % 2
        for j, srcs in enumerate(code1.check_sources):
            assert (u[list(srcs)].sum() + c[j]) % 2 == 0


def test_build_tanner_graph(code1):
    """One check per slot, on the sources its column combines."""
    assert len(code1.check_sources) == code1.n == 6
    assert code1.check_sources == ((0,), (1,), (2,), (0, 2), (0, 1), (1, 2))


# ----------------------------------------------------------------- channel LLR

def test_llr_chat_formula():
    assert llr_chat(1.0 + 0j, 1.0 + 0j, 1.0) == pytest.approx(4.0)
    assert llr_chat(0.5 - 0.5j, 1.0 + 1.0j, 2.0) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        llr_chat(1.0, 1.0, 0.0)


def test_llr_chat_matches_gaussian_pdf_oracle():
    rng = RNG(30)
    for _ in range(200):
        h = complex(rng.normal(), rng.normal())
        y = complex(rng.normal(), rng.normal())
        n0 = float(rng.uniform(0.5, 2.0))
        p0 = math.exp(-abs(y - h) ** 2 / n0)
        p1 = math.exp(-abs(y + h) ** 2 / n0)
        assert llr_chat(y, h, n0) == pytest.approx(math.log(p0 / p1), abs=1e-9)


def test_channel_llr_limits():
    # no relay error: the channel LLR passes through unchanged
    assert channel_llr(3.7, 0.0) == pytest.approx(3.7)
    assert channel_llr(-123.0, 0.0) == pytest.approx(-123.0)
    # useless detection: no information survives
    assert channel_llr(50.0, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_channel_llr_example():
    # b = 4, p = 0.1: ln[(9 e^4 + 1) / (9 + e^4)]
    expect = math.log((9 * math.e ** 4 + 1) / (9 + math.e ** 4))
    assert channel_llr(4.0, 0.1) == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(2.0467, abs=1e-4)


def test_channel_llr_odd_and_bounded():
    rng = RNG(31)
    for _ in range(500):
        b = float(rng.normal(scale=10))
        p = float(rng.uniform(0.001, 0.5))
        out = channel_llr(b, p)
        a = math.log((1 - p) / p)
        assert channel_llr(-b, p) == pytest.approx(-out, abs=1e-12)
        assert abs(out) <= min(abs(b), a) + 1e-12
        # direct linear-domain oracle
        ea, eb = math.exp(a), math.exp(b)
        assert out == pytest.approx(math.log((ea * eb + 1) / (ea + eb)), rel=1e-9)


def _llr_pairs(seed, size):
    """(b, p) pairs with p from 1e-300 to 1/2 and |b| from 1e-160 to 1e303,
    about the channel LLRs of the +-3000 dB SNR range a sweep accepts."""
    rng = RNG(seed)
    b = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-160, 303, size)
    p = 10.0 ** rng.uniform(-300, math.log10(0.5), size)
    return b, p


def test_channel_llr_is_exactly_odd():
    """channel_llr(-b, p) is -channel_llr(b, p) bit for bit, infinite b,
    b of order 1, p = 0 and p = 1/2 included."""
    b, p = _llr_pairs(33, 4000)
    b[:25] = np.inf
    b[25:50] = RNG(34).normal(size=25)
    p[::7] = 0.0
    p[1::7] = 0.5
    assert channel_llr(-b, p).tobytes() == np.negative(channel_llr(b, p)).tobytes()


@pytest.mark.parametrize("b", [1e17, -1e17, np.inf, -np.inf])
def test_channel_llr_saturates_at_the_relay_llr(b):
    """Past any channel evidence the relay's own odds are all that is
    left: +-ln((1-p)/p) = +-ln 9 at p = 0.1, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = channel_llr(b, 0.1)
    assert abs(out - math.copysign(math.log(9.0), b)) <= 1e-12


def test_channel_llr_matches_50_digit_reference():
    """Within 1e-13 of ln[(e^a e^b + 1) / (e^a + e^b)] taken to 50 digits
    as a + ln(1 + e^-(a+|b|)) - ln(1 + e^(a-|b|)) with the sign of b."""
    b, p = _llr_pairs(35, 1000)
    out = channel_llr(b, p)
    with localcontext() as ctx:
        ctx.prec = 50
        for bb, pp, o in zip(b, p, out):
            mag, pe = abs(Decimal(bb)), Decimal(pp)
            a = ((1 - pe) / pe).ln()
            want = a + (1 + (-(a + mag)).exp()).ln() - (1 + (a - mag).exp()).ln()
            assert abs(abs(Decimal(o)) - want) < Decimal("1e-13"), (bb, pp)
            assert math.copysign(1.0, o) == math.copysign(1.0, bb)


def test_channel_llr_rejects_bad_probability():
    with pytest.raises(ValueError):
        channel_llr(1.0, 0.6)
    with pytest.raises(ValueError):
        channel_llr(1.0, -0.01)
    with pytest.raises(ValueError):
        channel_llr(1.0, float("nan"))


def test_channel_llr_mixed_array():
    """Entries with p = 0 pass b through bit for bit (signed zero too);
    the others follow the scalar formula."""
    rng = RNG(32)
    b = rng.normal(scale=8, size=(6, 5))
    b[0, 0] = -0.0
    p = np.where(rng.random((6, 5)) < 0.5, 0.0, rng.uniform(0.001, 0.5, (6, 5)))
    p[0, 0] = 0.0
    assert 0 < (p == 0).sum() < p.size
    out = channel_llr(b, p)
    assert out.shape == b.shape
    assert out[p == 0].tobytes() == b[p == 0].tobytes()
    for bb, pp, o in zip(b[p > 0], p[p > 0], out[p > 0]):
        ea, eb = (1 - pp) / pp, math.exp(bb)
        assert o == pytest.approx(math.log((ea * eb + 1) / (ea + eb)), rel=1e-9, abs=1e-12)


# ------------------------------------------------------------------- MAP rule

def test_map_matches_linear_domain_oracle():
    """Production log-domain MAP equals a naive 2^k * 2^n enumeration."""
    rng = RNG(32)
    for trial in range(60):
        code = _random_code(rng)
        batch = simulate_rounds(code, FadingModel("block_iid", 1.0),
                                SncPolicy(trial % 2 == 0), RNG(1000 + trial), 8)
        posterior, decisions = map_decode_batch(batch, code)
        expect = map_oracle(batch, code)
        assert np.allclose(posterior, expect, atol=1e-9)
        assert (decisions == (posterior > 0.5)).all()


def test_map_noise_parameter_consistent_with_oracle():
    rng = RNG(33)
    code = _random_code(rng)
    batch = simulate_rounds(code, FadingModel("block_iid", 2.0),
                            SncPolicy(False), RNG(5), 6)
    for noise in (0.5, 2.0):
        posterior, _ = map_decode_batch(batch, code, noise=noise)
        assert np.allclose(posterior, map_oracle(batch, code, noise=noise),
                           atol=1e-9)


def test_map_posteriors_are_probabilities(code1):
    batch = simulate_rounds(code1, FadingModel("block_iid", 1.0),
                            SncPolicy(False), RNG(34), 500)
    posterior, decisions = map_decode_batch(batch, code1)
    assert ((posterior >= 0) & (posterior <= 1)).all()
    assert set(np.unique(decisions)) <= {0, 1}


def test_map_llr_consistent_with_posterior(code1):
    batch = simulate_rounds(code1, FadingModel("block_iid", 1.0),
                            SncPolicy(False), RNG(35), 200)
    posterior, decisions, llrs = map_decode_batch(batch, code1, with_llrs=True)
    sel = (posterior > 1e-12) & (posterior < 1 - 1e-12)
    expect = np.log((1 - posterior[sel]) / posterior[sel])
    assert np.allclose(llrs[sel], expect, atol=1e-6)


def test_map_overall_scaling_invariance(code1):
    """Scaling y and h jointly while scaling noise by the square leaves
    the posterior unchanged."""
    batch = simulate_rounds(code1, FadingModel("block_iid", 1.0),
                            SncPolicy(False), RNG(36), 100)
    p1, d1 = map_decode_batch(batch, code1, noise=1.0)
    scaled = type(batch)(**{**batch.__dict__,
                            "y": batch.y * 3.0, "h": batch.h * 3.0})
    p2, d2 = map_decode_batch(scaled, code1, noise=9.0)
    assert np.allclose(p1, p2, atol=1e-9)
    assert (d1 == d2).all()


def test_map_size_guard():
    code = repetition_code(14, 28)
    batch = simulate_rounds(code, FadingModel(), SncPolicy(), RNG(0), 1)
    with pytest.raises(ValueError):
        map_decode_batch(batch, code)
    assert 14 + 28 > MAP_SIZE_LIMIT


def test_map_decode_single_round_wrapper(code1):
    """A batch of one round decodes like any other."""
    batch = simulate_rounds(code1, FadingModel("block_iid", 100.0),
                            SncPolicy(), RNG(37), 1)
    posterior, decision = map_decode_batch(batch, code1)
    assert posterior.shape == (1, 3) and decision.shape == (1, 3)
    # at 20 dB the round is almost surely decoded correctly
    if (batch.e == 0).all():
        assert (decision[0] == batch.u[0]).all()


def test_map_uninformative_slots_are_ignored(code1):
    """Slots with reliability 1/2 must not influence the posterior."""
    batch = simulate_rounds(code1, FadingModel("block_iid", 1.0),
                            SncPolicy(False), RNG(38), 50)
    p_e = batch.p_e.copy()
    p_e[:, 3] = 0.5
    a = type(batch)(**{**batch.__dict__, "p_e": p_e})
    b = type(batch)(**{**batch.__dict__, "p_e": p_e,
                       "y": batch.y * np.where(np.arange(6) == 3, -1.0, 1.0)})
    pa, _ = map_decode_batch(a, code1)
    pb, _ = map_decode_batch(b, code1)
    assert np.allclose(pa, pb, atol=1e-12)


@pytest.mark.parametrize("snc", [False, True])
def test_map_in_chunks_equals_whole_batch(monkeypatch, code1, snc):
    """Chunks of 7 rounds, the last one short, give the whole batch's
    arrays exactly, with one shared table and with per-round tables."""
    batch = simulate_rounds(code1, FadingModel("block_iid", 1.0),
                            SncPolicy(snc), RNG(39), 50)
    assert (batch.g_eff == batch.g_eff[:1]).all() != snc
    whole = map_decode_batch(batch, code1, with_llrs=True)
    monkeypatch.setattr(netcode.decoders, "MAP_CHUNK_BYTES", 8 * 8 * 6 * 7)
    chunked = map_decode_batch(batch, code1, with_llrs=True)
    for a, b in zip(whole, chunked):
        assert np.array_equal(a, b)


def test_map_memory_does_not_grow_with_batch():
    """Selective encoding gives every round its own codeword table; the
    chunks keep the decoder's peak the same at 256 and 1 024 rounds."""
    code = code_for_requirements(10, 3)
    peaks = []
    for rounds in (256, 1024):
        batch = simulate_rounds(code, FadingModel("block_iid", 10.0),
                                SncPolicy(True), RNG(40), rounds)
        tracemalloc.start()
        try:
            map_decode_batch(batch, code)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]
    assert peaks[1] < 3 * netcode.decoders.MAP_CHUNK_BYTES


# --------------------------------------------------------------- sum-product

def test_sp_equals_map_on_cycle_free_graphs():
    """On a tree-structured graph the flooding sum-product fixed point is
    the exact marginal; compared in the LLR domain away from tanh
    saturation."""
    rng = RNG(40)
    # single-source codes and repetition codes have cycle-free graphs
    codes = [repetition_code(1, 4), repetition_code(2, 5), repetition_code(3, 6)]
    checked = 0
    for trial in range(300):
        code = codes[trial % len(codes)]
        batch = simulate_rounds(code, FadingModel("block_iid", 1.0),
                                SncPolicy(False), RNG(2000 + trial), 4)
        lam = channel_llr(llr_chat(batch.y, batch.h, 1.0), batch.p_e)
        if np.abs(lam).max() > 20:
            continue  # tanh(x/2) saturates to 1.0 in float64 beyond this
        sp_llr, sp_dec = sp_decode_batch(batch, code, iters=4)
        _, map_dec, map_llr = map_decode_batch(batch, code, with_llrs=True)
        assert np.allclose(sp_llr, map_llr, atol=1e-6)
        assert (sp_dec == map_dec).all()
        checked += 1
    assert checked >= 100


def _rounds(batch, keep):
    """The rounds of `batch` that the boolean mask `keep` selects."""
    return type(batch)(**{name: value[keep] if isinstance(value, np.ndarray) else value
                          for name, value in batch.__dict__.items()})


@pytest.mark.parametrize("design", [False, True])
def test_sp_matches_per_round_oracle_under_snc(code1, design):
    """With selective encoding the batch decoder equals flooding
    sum-product run round by round on each round's kept edges."""
    code = code_for_requirements(6, 3) if design else code1
    checked = dropped = 0
    for db in (0, 3, 6):
        batch = simulate_rounds(code, FadingModel("block_iid", 10 ** (db / 10)),
                                SncPolicy(True), RNG(100 + db), 80)
        lam = channel_llr(llr_chat(batch.y, batch.h, 1.0), batch.p_e)
        ok = np.abs(lam).max(axis=1) <= 20  # away from tanh saturation
        llrs, dec = sp_decode_batch(batch, code, iters=4)
        want = sp_oracle(_rounds(batch, ok), code, iters=4)
        assert np.allclose(llrs[ok], want, atol=1e-6)
        assert (dec[ok] == (want < 0)).all()
        checked += ok.sum()
        dropped += (batch.g_eff[ok] != code.G.to_array()).sum()
    assert checked >= 100 and dropped > 0


def _late_degree_1_code():
    """A code whose source 2 has its degree-1 check (slot 4) after two of
    its multi-source checks."""
    return network_code(BitMatrix.from_rows([[1, 1, 1, 0], [0, 1, 1, 1]]), [1, 2, 1, 2])


@pytest.mark.parametrize("snc", [False, True])
@pytest.mark.parametrize("iters", [1, 2, 4])
def test_sp_matches_oracle_when_a_degree_1_check_comes_late(snc, iters):
    """Source 2's degree-1 check (slot 4) follows two of its multi-source
    checks, so its total cannot start from its degree-1 message: the
    decoder still equals the per-round oracle, on the first iteration,
    on the last and in between."""
    code = _late_degree_1_code()
    assert code.check_sources == ((0,), (0, 1), (0, 1), (1,))
    checked = dropped = 0
    for db in (0, 4, 8):
        batch = simulate_rounds(code, FadingModel("block_iid", 10 ** (db / 10)),
                                SncPolicy(snc), RNG(200 + db), 120)
        lam = channel_llr(llr_chat(batch.y, batch.h, 1.0), batch.p_e)
        ok = np.abs(lam).max(axis=1) <= 20  # away from tanh saturation
        llrs, dec = sp_decode_batch(batch, code, iters=iters)
        want = sp_oracle(_rounds(batch, ok), code, iters=iters)
        assert np.allclose(llrs[ok], want, atol=1e-6)
        assert (dec[ok] == (want < 0)).all()
        checked += ok.sum()
        dropped += (batch.g_eff[ok] != code.G.to_array()).sum()
    assert checked >= 200
    assert (dropped > 0) == snc


@pytest.mark.parametrize("snc", [False, True])
def test_sp_equals_flooding_over_every_edge_bit_for_bit(net34, code1, snc):
    """Computing the degree-1 checks once and iterating over the
    multi-source edges only changes no bit of the output, sign bits
    included: on a code whose degree-1 check comes after its
    multi-source checks too, on the k = 10 design the benchmark
    decodes, and over up to 8 iterations."""
    codes = [net34, code1, code_for_requirements(6, 3), code_for_requirements(10, 3),
             repetition_code(3, 7), _late_degree_1_code()]
    for c, code in enumerate(codes):
        for db in (0, 8, 30):
            batch = simulate_rounds(code, FadingModel("block_iid", 10 ** (db / 10)),
                                    SncPolicy(snc), RNG([300, c, db]), 400)
            for iters in (1, 2, 4, 8):
                llrs, dec = sp_decode_batch(batch, code, iters=iters)
                want = sp_flooding_reference(batch, code, iters=iters)
                assert np.array_equal(llrs, want)
                assert np.array_equal(np.signbit(llrs), np.signbit(want))
                assert np.array_equal(dec, want < 0)


def test_sp_plan_is_cached_and_survives_pickling(code1):
    """The plan is built once per code, stays outside equality and
    hashing, and travels with a pickled config to a pool worker, which
    decodes a batch to the same LLRs."""
    plan = code1.plan
    assert code1.plan is plan
    fresh = network_code(code1.G, code1.v)
    assert fresh == code1 and hash(fresh) == hash(code1)
    assert "plan" not in fresh.__dict__
    config = SimConfig(code=code1, snr_grid_db=(6.0,), snc=True)
    restored = pickle.loads(pickle.dumps(config))
    assert "plan" in restored.code.__dict__ and restored.code == code1
    batch = simulate_rounds(code1, FadingModel("block_iid", 4.0),
                            SncPolicy(True), RNG(52), 300)
    want, _ = sp_decode_batch(batch, config.code)
    got, _ = sp_decode_batch(batch, restored.code)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_sp_decisions_track_map_on_loopy_graph(code1):
    """On the loopy 3x6 graph sum-product is approximate but should agree
    with MAP on the vast majority of rounds at moderate SNR."""
    batch = simulate_rounds(code1, FadingModel("block_iid", 10.0),
                            SncPolicy(False), RNG(41), 5000)
    _, sp_dec = sp_decode_batch(batch, code1, iters=4)
    _, map_dec = map_decode_batch(batch, code1)
    agree = (sp_dec == map_dec).all(axis=1).mean()
    assert agree > 0.97


def test_sp_uninformative_reliability_kills_posterior(rep36):
    """With every slot reliability at 1/2 nothing propagates: posterior
    LLRs are exactly zero and decisions default to 0."""
    batch = simulate_rounds(rep36, FadingModel("block_iid", 1.0),
                            SncPolicy(False), RNG(42), 20)
    half = type(batch)(**{**batch.__dict__, "p_e": np.full_like(batch.p_e, 0.5)})
    llrs, decisions = sp_decode_batch(half, rep36)
    assert np.allclose(llrs, 0.0, atol=1e-12)
    assert (decisions == 0).all()


def test_sp_iteration_count_is_respected(code1):
    batch = simulate_rounds(code1, FadingModel("block_iid", 1.0),
                            SncPolicy(False), RNG(43), 200)
    l1, _ = sp_decode_batch(batch, code1, iters=1)
    l4a, _ = sp_decode_batch(batch, code1, iters=4)
    l4b, _ = sp_decode_batch(batch, code1, iters=4)
    assert np.array_equal(l4a, l4b)
    assert not np.allclose(l1, l4a)
    with pytest.raises(ValueError, match="iters"):
        sp_decode_batch(batch, code1, iters=0)


def test_sp_single_round_wrapper(code1):
    """A batch of one round decodes like any other."""
    batch = simulate_rounds(code1, FadingModel("block_iid", 100.0),
                            SncPolicy(), RNG(44), 1)
    llrs, decision = sp_decode_batch(batch, code1)
    assert llrs.shape == (1, 3) and decision.shape == (1, 3)
    if (batch.e == 0).all():
        assert (decision[0] == batch.u[0]).all()


def test_sp_finite_under_extreme_llrs(code1):
    """Saturated channel LLRs must not produce inf/nan messages."""
    batch = simulate_rounds(code1, FadingModel("block_iid", 10_000.0),
                            SncPolicy(False), RNG(45), 500)
    llrs, _ = sp_decode_batch(batch, code1)
    assert np.isfinite(llrs).all()


@pytest.mark.parametrize("decode", [map_decode_batch, sp_decode_batch])
@pytest.mark.parametrize("field, value", [("y", np.nan), ("h", np.inf)])
def test_non_finite_observation_rejected(code1, decode, field, value):
    batch = simulate_rounds(code1, FadingModel(), SncPolicy(), RNG(45), 4)
    getattr(batch, field)[1, 2] = value
    with pytest.raises(ValueError, match="non-finite observation"):
        decode(batch, code1)


# ---------------------------------------------------------------- mode logic

def test_mode_validation(code1):
    batch = simulate_rounds(code1, FadingModel(), SncPolicy(), RNG(46), 4)
    with pytest.raises(ValueError):
        decode_with_mode_batch(batch, code1, mode="oracle")
    with pytest.raises(ValueError):
        decode_with_mode_batch(batch, code1, decoder="viterbi")


def test_genie_mode_requires_error_free_batch(code1):
    batch = simulate_rounds(code1, FadingModel(), SncPolicy(), RNG(47), 4)
    with pytest.raises(ValueError):
        decode_with_mode_batch(batch, code1, mode="genie")
    clean = simulate_rounds(code1, FadingModel(), SncPolicy(), RNG(47), 4,
                            genie=True)
    decode_with_mode_batch(clean, code1, mode="genie")  # no error


def test_naive_mode_ignores_reliabilities(code1):
    batch = simulate_rounds(code1, FadingModel("block_iid", 1.0),
                            SncPolicy(False), RNG(48), 300)
    naive = decode_with_mode_batch(batch, code1, mode="naive", decoder="map")
    zeroed = type(batch)(**{**batch.__dict__,
                            "p_e": np.zeros_like(batch.p_e)})
    _, expect = map_decode_batch(zeroed, code1)
    assert (naive == expect).all()
    # original batch is untouched
    assert batch.p_e.any()


def test_optimal_mode_dispatches_to_both_decoders(code1):
    batch = simulate_rounds(code1, FadingModel("block_iid", 1.0),
                            SncPolicy(False), RNG(49), 300)
    dm = decode_with_mode_batch(batch, code1, mode="optimal", decoder="map")
    _, expect = map_decode_batch(batch, code1)
    assert (dm == expect).all()
    ds = decode_with_mode_batch(batch, code1, mode="optimal", decoder="sp",
                                sp_iters=3)
    _, expect = sp_decode_batch(batch, code1, iters=3)
    assert (ds == expect).all()


def test_decode_with_mode_single_round(code1):
    batch = simulate_rounds(code1, FadingModel("block_iid", 100.0),
                            SncPolicy(), RNG(50), 1, genie=True)
    decision = decode_with_mode_batch(batch, code1, mode="genie")
    assert (decision[0] == batch.u[0]).all()


def test_optimal_beats_naive_at_moderate_snr(code1):
    """Using true reliabilities can only help on average."""
    batch = simulate_rounds(code1, FadingModel("block_iid", 3.0),
                            SncPolicy(False), RNG(51), 60_000)
    opt = decode_with_mode_batch(batch, code1, mode="optimal", decoder="map")
    nav = decode_with_mode_batch(batch, code1, mode="naive", decoder="map")
    ber_opt = (opt != batch.u).mean()
    ber_nav = (nav != batch.u).mean()
    assert ber_opt < ber_nav
