"""Destination-side decoding: exact per-bit MAP, sum-product message
passing on the Tanner graph of [G^T | I_n], and the genie/naive
reference modes.

LLR sign convention: positive favors bit 0 (ln p0/p1).  Decoders take
a RoundBatch and return per-round arrays.
"""
from __future__ import annotations

import numpy as np

from .channel import RoundBatch
from .design import NetworkCode

__all__ = [
    "llr_chat",
    "channel_llr",
    "map_decode_batch",
    "sp_decode_batch",
    "decode_with_mode_batch",
    "MAP_SIZE_LIMIT",
]

# Exhaustive marginalization guard for the MAP rule.
MAP_SIZE_LIMIT = 26

# Bytes of per-round codeword tables one MAP chunk may hold (8 bytes per
# hypothesis and slot); a NET34 batch of 65 536 rounds fits in one chunk.
MAP_CHUNK_BYTES = 1 << 24

_ATANH_EPS = 1e-15


def llr_chat(y, h, noise):
    """Channel LLR of the transmitted (possibly relay-corrupted) bit."""
    if not noise > 0:
        raise ValueError("noise spectral density must be positive")
    return 4.0 * np.real(np.conj(h) * np.asarray(y)) / noise


def channel_llr(llr_chat_val, p_e):
    """LLR of the error-free coded bit given the relay error probability.

    Evaluates f(b) = ln[(e^a e^b + 1) / (e^a + e^b)] with a = ln((1-p)/p),
    b = the raw channel LLR, on the entries where the relay can err
    (p > 0); elsewhere it is b itself.  f is odd, so it is taken as
    lse(a + y, 0) - lse(a, y) at y = -|b|, where neither log-sum-exp
    cancels (|b| up to infinity gives -a), and given the sign of b.
    """
    b, p = np.broadcast_arrays(np.asarray(llr_chat_val, dtype=float),
                               np.asarray(p_e, dtype=float))
    if not np.all((p >= 0) & (p <= 0.5)):
        raise ValueError("relay error probability must lie in [0, 1/2]")
    err = p > 0
    pe, be = p[err], b[err]
    a = np.log1p(-pe) - np.log(pe)
    y = -np.abs(be)
    out = b.copy()
    out[err] = np.copysign(_lse(a + y, 0.0) - _lse(a, y), be)
    if out.ndim == 0:
        return float(out)
    return out


def _lse(u, v):
    """ln(e^u + e^v), elementwise."""
    return np.maximum(u, v) + np.log1p(np.exp(-np.abs(u - v)))


def _slot_llrs(batch: RoundBatch, noise: float) -> np.ndarray:
    """(B, n) LLRs of the error-free coded bits: the channel LLRs with the
    relay errors marginalized.  Rejects a non-finite observation."""
    if not np.all(np.isfinite(batch.y)) or not np.all(np.isfinite(batch.h)):
        raise ValueError("non-finite observation")
    return channel_llr(llr_chat(batch.y, batch.h, noise), batch.p_e)


def map_decode_batch(batch: RoundBatch, code: NetworkCode, noise: float = 1.0,
                     with_llrs: bool = False):
    """Exact per-bit posteriors by marginalizing over data vectors and
    relay error patterns.

    Returns (posterior, decisions): posterior[b, i] = P(u_i = 1 | y),
    decisions by argmax with ties resolved to 0.  With `with_llrs` a
    third array ln P(u_i=0|y)/P(u_i=1|y) is appended (saturation-free).
    Rounds are decoded in chunks of at most `MAP_CHUNK_BYTES` of
    codeword table, so memory does not grow with the batch.
    """
    k, n = code.k, code.n
    if k + n > MAP_SIZE_LIMIT:
        raise ValueError(f"k + n = {k + n} exceeds MAP guard {MAP_SIZE_LIMIT}")
    neg_lam = np.negative(_slot_llrs(batch, noise).T, order="C")  # (n, B)
    M, B = 1 << k, len(batch)
    # Without selective encoding every round shares one generator matrix.
    g = batch.g_eff
    shared = (g == g[:1]).all()
    p1 = np.empty((k, B))                                  # P(u_i = 1 | y)
    llrs = np.empty((k, B)) if with_llrs else None
    step = max(1, MAP_CHUNK_BYTES // (8 * M * n))
    for lo in range(0, B, step):
        rows = slice(lo, lo + step)
        gc = g[:1] if shared else g[rows]
        # codeword tables, (M, rounds, n): hypothesis m carries u_i = (m >> i)
        # & 1, so the codewords of m in [2^i, 2^(i+1)) are those of m - 2^i
        # XOR row i.
        cu = np.zeros((M, len(gc), n))
        for i in range(k):
            np.not_equal(cu[:1 << i], gc[:, i], out=cu[1 << i:2 << i])
        # log-likelihood of each hypothesis, up to a per-round constant: minus
        # the slot LLRs (relay errors marginalized) summed over its coded 1s,
        # hypothesis-major, (M, rounds) (the thin products go through einsum:
        # BLAS threads only contend here)
        score = (np.einsum("mn,nb->mb", cu[:, 0], neg_lam[:, rows]) if shared
                 else np.einsum("mbn,nb->mb", cu, neg_lam[:, rows]))
        score -= score.max(axis=0)
        like = np.exp(score)
        # the rows with u_i = 1 are the second of each pair of blocks of 2^i
        for i in range(k):
            blocks = (-1, 2, 1 << i, like.shape[1])
            like.reshape(blocks)[:, 1].sum(axis=(0, 1), out=p1[i, rows])
            if with_llrs:
                s = score.reshape(blocks)
                llrs[i, rows] = _logsumexp(s[:, 0]) - _logsumexp(s[:, 1])
        p1[:, rows] /= like.sum(axis=0)
    posterior = p1.T.copy()
    decisions = (posterior > 0.5).astype(np.uint8)
    if not with_llrs:
        return posterior, decisions
    return posterior, decisions, llrs.T.copy()


def _logsumexp(x):
    """ln sum exp over the leading two axes of (., ., rounds) x."""
    x = x.reshape(-1, x.shape[-1])
    m = x.max(axis=0)
    m = np.where(np.isfinite(m), m, 0.0)
    return m + np.log(np.exp(x - m).sum(axis=0))


def sp_decode_batch(
    batch: RoundBatch,
    code: NetworkCode,
    noise: float = 1.0,
    iters: int = 4,
):
    """Sum-product decoding with a flooding schedule and a fixed number
    of iterations (no early termination).

    Messages live on the edges of the code's Tanner graph (check j ties
    coded bit j to the sources of `code.check_sources[j]`), one row of
    rounds per edge, laid out once per code in `code.plan`; an edge that
    selective encoding dropped from a round carries no message in that
    round.  Coded variables have degree 1, so their messages into the
    checks are the composite channel LLRs and never change; so are the
    messages of the degree-1 checks, which are computed once per batch,
    and the check updates run over the multi-source edges only; each
    iteration sums every source's messages anew, in edge order.  No LLR
    needs a clamp ahead of the tanh rule: in float64 tanh(x/2) is exactly
    +-1 for every |x| >= 38, infinities included, and each check message
    is 2 atanh of a product clipped short of +-1, so it stays finite.
    Returns (posterior_llrs, decisions); ties (LLR exactly 0) decide 0.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    lam = _slot_llrs(batch, noise)
    plan = code.plan
    m = plan.loopy
    B = len(batch)
    # flat indices into the (E, B) edge rows of the edges SNC dropped
    dropped = np.flatnonzero(batch.g_eff[:, plan.src, plan.chk].T != 1)
    loopy_dropped = dropped[:np.searchsorted(dropped, m * B)]
    # fixed c_j -> check_j factor; 0 on a dropped edge, whose check message
    # is then 2 atanh(0) = 0 in every iteration
    t_lam = np.ascontiguousarray(np.tanh(lam / 2.0).T[plan.chk])  # (E, B)
    t_lam.reshape(-1)[dropped] = 0.0
    msg = np.empty_like(t_lam)                     # check -> source messages
    _check_message(t_lam[m:], msg[m:])             # degree-1 checks: fixed
    totals = np.empty((code.k, B))                 # per-source sums, in edge order
    # source -> check messages start at 0, and tanh(0) = 0 on a kept edge
    t = np.zeros((m, B))
    excl = np.empty_like(t)
    suf = np.empty(B)                              # running suffix product
    for it in range(iters):
        if it:
            # t = tanh(m_vc / 2) on kept edges, in place
            np.divide(t, 2.0, out=t)
            np.tanh(t, out=t)
        t.reshape(-1)[loopy_dropped] = 1.0         # dropped edges: factor 1
        # product over the check's other sources: prefix times suffix (the
        # factors of 1 that start each product are left out, exactly)
        for lo, hi in plan.spans:
            np.copyto(excl[lo + 1], t[lo])
            for e in range(lo + 2, hi):
                np.multiply(excl[e - 1], t[e - 1], out=excl[e])
            s = t[hi - 1]
            for e in range(hi - 2, lo, -1):
                np.multiply(excl[e], s, out=excl[e])
                s = np.multiply(s, t[e], out=suf)
            np.copyto(excl[lo], s)
        np.multiply(t_lam[:m], excl, out=excl)
        _check_message(excl, msg[:m])
        totals.fill(0.0)
        for i, e in plan.sums:
            totals[i] += msg[e]
        if it < iters - 1:                         # m_vc, unused on dropped edges
            np.subtract(totals[plan.src[:m]], msg[:m], out=t)
    posterior_llrs = totals.T.copy()                # (B, k); source channel LLR is 0
    decisions = (posterior_llrs < 0).astype(np.uint8)
    return posterior_llrs, decisions


def _check_message(prod, out):
    """2 atanh(prod) into `out`, with prod clipped short of +-1 in place."""
    np.clip(prod, -1 + _ATANH_EPS, 1 - _ATANH_EPS, out=prod)
    np.arctanh(prod, out=out)
    np.multiply(out, 2.0, out=out)


DECODE_MODES = ("optimal", "genie", "naive")
DECODERS = ("map", "sp")


def decode_with_mode_batch(
    batch: RoundBatch,
    code: NetworkCode,
    noise: float = 1.0,
    mode: str = "optimal",
    decoder: str = "map",
    sp_iters: int = 4,
) -> np.ndarray:
    """Decode a batch under one of the reference modes.

    optimal: use the true reliabilities.  naive: pretend the relays never
    err (reliabilities zeroed at the decoder only).  genie: requires a
    batch simulated without relay errors.
    """
    if mode not in DECODE_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}")
    if mode == "genie":
        if not batch.error_free:
            raise ValueError("genie mode requires an error-free realization")
    elif mode == "naive":
        batch = RoundBatch(**{**batch.__dict__, "p_e": np.zeros_like(batch.p_e)})
    if decoder == "map":
        _, decisions = map_decode_batch(batch, code, noise)
    else:
        _, decisions = sp_decode_batch(batch, code, noise, sp_iters)
    return decisions
