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

# Message clamp applied ahead of the tanh rule so extreme reliabilities
# cannot overflow while leaving hard decisions untouched.
LLR_CLAMP = 40.0
_ATANH_EPS = 1e-15


def llr_chat(y, h, noise):
    """Channel LLR of the transmitted (possibly relay-corrupted) bit."""
    if not noise > 0:
        raise ValueError("noise spectral density must be positive")
    return 4.0 * np.real(np.conj(h) * np.asarray(y)) / noise


def channel_llr(llr_chat_val, p_e):
    """LLR of the error-free coded bit given the relay error probability.

    Evaluates ln[(e^a e^b + 1) / (e^a + e^b)] with a = ln((1-p)/p),
    b = the raw channel LLR, in log-sum-exp form for stability.
    """
    b = np.asarray(llr_chat_val, dtype=float)
    p = np.asarray(p_e, dtype=float)
    if np.any((p < 0) | (p > 0.5)):
        raise ValueError("relay error probability must lie in [0, 1/2]")
    with np.errstate(divide="ignore"):
        a = np.log1p(-p) - np.log(p)  # +inf at p = 0
    exact = np.isinf(a)
    a_safe = np.where(exact, 0.0, a)
    out = np.where(
        exact,
        b,
        np.logaddexp(a_safe + b, 0.0) - np.logaddexp(a_safe, b),
    )
    if out.ndim == 0:
        return float(out)
    return out


def _check_batch(batch: RoundBatch, noise: float):
    if not noise > 0:
        raise ValueError("noise spectral density must be positive")
    if not np.all(np.isfinite(batch.y)) or not np.all(np.isfinite(batch.h)):
        raise ValueError("non-finite observation")


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
    _check_batch(batch, noise)
    M = 1 << k
    lam = channel_llr(llr_chat(batch.y, batch.h, noise), batch.p_e)  # (B, n)
    # Without selective encoding every round shares one generator matrix.
    g = batch.g_eff
    shared = (g == g[:1]).all()
    U = ((np.arange(M)[:, None] >> np.arange(k)) & 1).astype(float)  # (M, k) data bits
    posterior = np.empty((len(batch), k))
    llrs = np.empty((len(batch), k)) if with_llrs else None
    step = max(1, MAP_CHUNK_BYTES // (8 * M * n))
    for lo in range(0, len(batch), step):
        rows = slice(lo, lo + step)
        gc = (g[:1] if shared else g[rows]).astype(float)
        # codeword tables: hypothesis m carries u_i = (m >> i) & 1, so the
        # codewords of m in [2^i, 2^(i+1)) are those of m - 2^i XOR row i.
        cu = np.zeros((len(gc), M, n))
        for i in range(k):
            np.not_equal(cu[:, :1 << i], gc[:, i, None, :], out=cu[:, 1 << i:2 << i])
        # log-likelihood of each hypothesis, up to a per-round constant: minus
        # the slot LLRs (relay errors marginalized) summed over its coded 1s
        # (the thin products go through einsum: BLAS threads only contend here)
        minus_lam = -lam[rows]
        cu = np.broadcast_to(cu, (len(minus_lam), M, n))
        score = np.einsum("bmn,bn->bm", cu, minus_lam)
        score -= score.max(axis=1, keepdims=True)
        like = np.exp(score)
        posterior[rows] = (np.einsum("bm,mk->bk", like, U)
                           / like.sum(axis=1, keepdims=True))
        if with_llrs:
            llrs[rows] = np.stack([_logsumexp(score[:, U[:, i] == 0], axis=1)
                                   - _logsumexp(score[:, U[:, i] == 1], axis=1)
                                   for i in range(k)], axis=1)
    decisions = (posterior > 0.5).astype(np.uint8)
    if not with_llrs:
        return posterior, decisions
    return posterior, decisions, llrs


def _logsumexp(x, axis):
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return (m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))).squeeze(axis)


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
    rounds per edge; an edge that selective encoding dropped from a
    round carries no message in that round.  Coded variables have
    degree 1, so their messages into the checks are the composite
    channel LLRs and never change.  Returns (posterior_llrs, decisions);
    ties (LLR exactly 0) decide 0.
    """
    _check_batch(batch, noise)
    checks = code.check_sources
    chk = [j for j, srcs in enumerate(checks) for _ in srcs]  # edges by check,
    src = [i for srcs in checks for i in srcs]                 # then by source
    L = llr_chat(batch.y, batch.h, noise)          # (B, n)
    lam = np.clip(channel_llr(L, batch.p_e), -LLR_CLAMP, LLR_CLAMP)
    t_lam = np.tanh(lam / 2.0).T[chk]              # (E, B) fixed c_j -> check_j factor
    kept = batch.g_eff[:, src, chk].T == 1         # (E, B) edges SNC kept

    m_vc = np.zeros(t_lam.shape)                   # source -> check messages
    totals = np.zeros((code.k, len(batch)))        # per-source sum over checks
    for _ in range(iters):
        t = np.where(kept, np.tanh(np.clip(m_vc, -LLR_CLAMP, LLR_CLAMP) / 2.0), 1.0)
        # product over the check's other sources: prefix times suffix
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
        prod = np.clip(t_lam * excl, -1 + _ATANH_EPS, 1 - _ATANH_EPS)
        m_cv = np.where(kept, 2.0 * np.arctanh(prod), 0.0)
        for s in range(code.k):
            totals[s] = sum(m_cv[e] for e, i in enumerate(src) if i == s)
        m_vc = totals[src] - m_cv                  # unused on dropped edges
    posterior_llrs = totals.T.copy()                # (B, k); source channel LLR is 0
    decisions = (posterior_llrs < 0).astype(np.uint8)
    return posterior_llrs, decisions


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
