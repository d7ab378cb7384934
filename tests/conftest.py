import math

import numpy as np
import pytest
from scipy.special import erfc

from netcode.channel import RoundBatch, combine_reliability, snc_threshold
from netcode.gf2 import BitMatrix
from netcode.design import network_code

# Sample networks used throughout: the 3-source/4-slot introductory
# network, the 3x6 repetition scheme, the (6,3,3)-based code, its
# punctured (5,3) variant, and the (7,3,4)-based code.

NET34_ROWS = [[1, 0, 1, 1],
              [0, 1, 0, 1],
              [0, 0, 1, 0]]
NET34_V = [1, 2, 3, 2]

REP36_ROWS = [[1, 0, 0, 1, 0, 0],
              [0, 1, 0, 0, 1, 0],
              [0, 0, 1, 0, 0, 1]]
REP36_V = [1, 2, 3, 1, 2, 3]

CODE1_ROWS = [[1, 0, 0, 1, 1, 0],
              [0, 1, 0, 0, 1, 1],
              [0, 0, 1, 1, 0, 1]]
CODE1_V = [1, 2, 3, 1, 2, 3]

CODE2_ROWS = [[1, 0, 0, 1, 1],
              [0, 1, 0, 0, 1],
              [0, 0, 1, 1, 0]]
CODE2_V = [1, 2, 3, 1, 2]

CODE3_ROWS = [[1, 0, 0, 1, 1, 0, 1],
              [0, 1, 0, 0, 1, 1, 1],
              [0, 0, 1, 1, 0, 1, 1]]
CODE3_V = [1, 2, 3, 1, 2, 3, 1]


@pytest.fixture
def net34():
    return network_code(BitMatrix.from_rows(NET34_ROWS), NET34_V)


@pytest.fixture
def rep36():
    return network_code(BitMatrix.from_rows(REP36_ROWS), REP36_V)


@pytest.fixture
def code1():
    return network_code(BitMatrix.from_rows(CODE1_ROWS), CODE1_V)


@pytest.fixture
def code2():
    return network_code(BitMatrix.from_rows(CODE2_ROWS), CODE2_V)


@pytest.fixture
def code3():
    return network_code(BitMatrix.from_rows(CODE3_ROWS), CODE3_V)


def separation_oracle(rows):
    """Exhaustive per-source minimum distance over all 2^k data vectors."""
    k = len(rows)
    n = len(rows[0])
    d = [n] * k
    for u in range(1, 1 << k):
        bits = [(u >> i) & 1 for i in range(k)]
        cw = [sum(bits[i] * rows[i][j] for i in range(k)) % 2 for j in range(n)]
        w = sum(cw)
        for i in range(k):
            if bits[i]:
                d[i] = min(d[i], w)
    return d


def map_oracle(batch, code, noise=1.0):
    """Naive linear-domain double enumeration of Bayes' rule; independent
    of the production log-domain path."""
    k, n = code.k, code.n
    out = np.zeros((len(batch), k))
    for r in range(len(batch)):
        g = batch.g_eff[r].astype(int)
        tot = 0.0
        p1 = np.zeros(k)
        for uu in range(1 << k):
            ub = [(uu >> i) & 1 for i in range(k)]
            for ee in range(1 << n):
                eb = [(ee >> j) & 1 for j in range(n)]
                lik = 1.0
                for j in range(n):
                    c = sum(ub[i] * g[i][j] for i in range(k)) % 2
                    s = 1 - 2 * (c ^ eb[j])
                    diff = batch.y[r, j] - batch.h[r, j] * s
                    lik *= np.exp(-abs(diff) ** 2 / noise) / (np.pi * noise)
                    pe = batch.p_e[r, j]
                    lik *= pe if eb[j] else (1.0 - pe)
                tot += lik
                for i in range(k):
                    if ub[i]:
                        p1[i] += lik
        out[r] = p1 / tot
    return out


def sp_oracle(batch, code, iters=4, noise=1.0):
    """Flooding sum-product per round in plain loops, on the checks of
    batch.g_eff[r] (sources SNC dropped are not connected) and the
    composite slot LLR in its linear-domain closed form; independent of
    the production edge arrays and masks."""
    k, n = code.k, code.n
    out = np.zeros((len(batch), k))
    for r in range(len(batch)):
        g = batch.g_eff[r]
        lam = []
        for j in range(n):
            b = 4.0 * (batch.h[r, j].conjugate() * batch.y[r, j]).real / noise
            p = batch.p_e[r, j]
            lam.append(math.log(((1 - p) * math.exp(b) + p) / ((1 - p) + p * math.exp(b))))
        edges = [(i, j) for j in range(n) for i in range(k) if g[i][j]]
        m_vc = {e: 0.0 for e in edges}
        for _ in range(iters):
            m_cv = {}
            for i, j in edges:
                prod = math.tanh(lam[j] / 2)
                for i2, j2 in edges:
                    if j2 == j and i2 != i:
                        prod *= math.tanh(m_vc[i2, j2] / 2)
                m_cv[i, j] = 2 * math.atanh(prod)
            total = [sum(m for (i, _), m in m_cv.items() if i == s) for s in range(k)]
            m_vc = {(i, j): total[i] - m_cv[i, j] for i, j in edges}
        out[r] = total
    return out


def sp_flooding_reference(batch, code, iters=4, noise=1.0):
    """Batch flooding sum-product over every edge of the Tanner graph,
    degree-1 checks included, with the production decoder's arithmetic
    in the same order: per-source totals add the check messages in edge
    order (by check, then by source) from zero, so the plan-based
    decoder must equal it bit for bit, signed zeros included.  It clips
    every LLR to +-40 ahead of the tanh rule, where tanh(x/2) is already
    +-1, so the unclamped decoder must match it there too."""
    from netcode.decoders import _ATANH_EPS, channel_llr, llr_chat
    clamp = 40.0
    checks = code.check_sources
    chk = [j for j, srcs in enumerate(checks) for _ in srcs]
    src = [i for srcs in checks for i in srcs]
    lam = np.clip(channel_llr(llr_chat(batch.y, batch.h, noise), batch.p_e),
                  -clamp, clamp)
    kept = batch.g_eff[:, src, chk].T == 1
    t_lam = np.where(kept, np.tanh(lam / 2.0).T[chk], 0.0)
    m_vc = np.zeros(t_lam.shape)
    for _ in range(iters):
        t = np.where(kept, np.tanh(np.clip(m_vc, -clamp, clamp) / 2.0), 1.0)
        excl = np.ones_like(t)
        hi = 0
        for srcs in checks:
            lo, hi = hi, hi + len(srcs)
            for e in range(lo + 1, hi):
                excl[e] = excl[e - 1] * t[e - 1]
            suf = 1.0
            for e in range(hi - 2, lo - 1, -1):
                suf = suf * t[e + 1]
                excl[e] *= suf
        m_cv = 2.0 * np.arctanh(np.clip(t_lam * excl, -1 + _ATANH_EPS, 1 - _ATANH_EPS))
        totals = np.zeros((code.k, len(batch)))
        for e, i in enumerate(src):
            totals[i] += m_cv[e]
        m_vc = totals[src] - m_cv
    return totals.T


def simulate_rounds_reference(code, fading, snc, rng, batch, genie=False):
    """Round simulation in complex arithmetic, one expression per array,
    with the draws in the order of the package's `simulate_rounds`: data
    bits, link SNRs, error uniforms, then the real and imaginary parts
    of the gains and of the noise.  The package writes `h`, `w` and `y`
    through their real and imaginary parts and the detection error
    probabilities in place, so its batches must equal these byte for
    byte."""
    k, n = code.k, code.n
    G = code.G.to_array()
    u = rng.integers(0, 2, size=(batch, k)).astype(np.uint8)
    pairs = code.relay_pairs
    P = len(pairs)
    if genie:
        pair_err_prob = np.zeros((batch, P))
        pair_err = np.zeros((batch, P), dtype=np.uint8)
    else:
        gammas = rng.exponential(fading.mean_snr, size=(batch, P))
        pair_err_prob = 0.5 * erfc(np.sqrt(2.0 * gammas) / np.sqrt(2.0))
        uni = rng.random(size=(batch, P))
        pair_err = (uni < pair_err_prob).astype(np.uint8)
    kept = (pair_err_prob < snc_threshold(fading.mean_snr) if snc.enabled
            else np.ones((batch, P), dtype=bool))
    g_eff = np.broadcast_to(G, (batch, k, n)).copy()
    e = np.zeros((batch, n), dtype=np.uint8)
    p_e = np.zeros((batch, n))
    for j, slot in enumerate(code.slot_pairs):
        if not slot:
            continue
        keep_j = kept[:, slot]
        g_eff[:, [pairs[idx][0] for idx in slot], j] = keep_j
        p_e[:, j] = combine_reliability(np.where(keep_j, pair_err_prob[:, slot], 0.0))
        e[:, j] = np.where(keep_j, pair_err[:, slot], 0).sum(axis=1) % 2
    c = np.einsum("bk,bkn->bn", u, g_eff) % 2
    c_hat = c ^ e
    es = fading.mean_snr
    owners, col = ((range(n), slice(None)) if fading.mode == "block_iid"
                   else np.unique(code.v, return_inverse=True))
    shape = (batch, len(owners))
    h = (np.sqrt(es / 2.0) * (rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape)))[:, col]
    w = np.sqrt(0.5) * (rng.standard_normal((batch, n))
                        + 1j * rng.standard_normal((batch, n)))
    y = h * (1.0 - 2.0 * c_hat) + w
    return RoundBatch(u=u, c=c, e=e, c_hat=c_hat, p_e=p_e, h=h, y=y,
                      g_eff=g_eff, pairs=list(pairs), pair_err_prob=pair_err_prob,
                      pair_err=pair_err, pair_kept=kept, error_free=genie)
