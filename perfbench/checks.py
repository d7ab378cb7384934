"""Reference computations the benchmark checks the program against.

Everything here is written apart from `netcode`: closed-form Rayleigh
error rates, a brute-force MAP over data bits and relay detection
errors, a loop-based flooding sum-product, a brute-force separation
vector, and bounds on code length and distance.  The functions take
plain numbers and numpy arrays (a `RoundBatch` only as a record of what
was simulated) and never call into the package.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

# One-sided tolerance, in standard deviations of the estimate, for a
# Monte Carlo bit error rate against a closed form.
SIGMAS = 4.0

# Sum-product LLRs must agree with the reference to this tolerance.
LLR_TOL = 1e-6

# The decoder's stated message clamps: messages are clipped to
# +-LLR_CLAMP ahead of the tanh rule, and the tanh product to
# +-(1 - TANH_EPS) ahead of atanh.  Both are part of the algorithm's
# definition, so the reference applies them too.
LLR_CLAMP = 40.0
TANH_EPS = 1e-15


# -- closed forms -----------------------------------------------------------

def rayleigh_mrc_ber(mean_snr: float, branches: int) -> float:
    """BPSK bit error rate of maximal-ratio combining over `branches`
    independent Rayleigh branches of equal mean SNR (Proakis 14.4-15)."""
    mu = math.sqrt(mean_snr / (1.0 + mean_snr))
    lo, hi = (1.0 - mu) / 2.0, (1.0 + mu) / 2.0
    s = sum(math.comb(branches - 1 + l, l) * hi ** l for l in range(branches))
    return lo ** branches * s


def bound_violations(rows: list[list[int]], own_slot: list[bool], snr_db: float,
                     trials: int, errors: list[int], exact_map: bool) -> list[str]:
    """Check one sweep point against the two Rayleigh closed forms.

    Lower bound (any decoder): the genie that knows every other data bit
    and every relay error combines the w_i slots that carry u_i, so
    BER_i >= MRC(w_i).  Upper bound (exact MAP only): a source with its
    own uncoded slot can be decided from that slot alone, so
    BER_i <= single-link BER.
    """
    gamma = 10.0 ** (snr_db / 10.0)
    out = []
    for i, row in enumerate(rows):
        ber = errors[i] / trials
        lower = rayleigh_mrc_ber(gamma, sum(row))
        sigma = math.sqrt(lower * (1.0 - lower) / trials)
        if ber < lower - SIGMAS * sigma:
            out.append(f"{snr_db} dB source {i + 1}: BER {ber:.3g} below genie "
                       f"MRC bound {lower:.3g}")
        if exact_map and own_slot[i]:
            upper = rayleigh_mrc_ber(gamma, 1)
            sigma = math.sqrt(upper * (1.0 - upper) / trials)
            if ber > upper + SIGMAS * sigma:
                out.append(f"{snr_db} dB source {i + 1}: BER {ber:.3g} above "
                           f"single-link bound {upper:.3g}")
    return out


def own_uncoded_slots(rows: list[list[int]]) -> list[bool]:
    """True for each source that has a slot carrying only its own bit."""
    k, n = len(rows), len(rows[0])
    return [any(rows[i][j] and sum(rows[r][j] for r in range(k)) == 1
                for j in range(n)) for i in range(k)]


# -- channel statistics -----------------------------------------------------

# Centered statistics (sample means against their expectation) are
# checked at 5 sigma, so that a correct program fails one of them about
# once in 1.7 million.
CHANNEL_SIGMAS = 5.0


def transmitted_bits(schedule: list[int], batch) -> np.ndarray:
    """The bits the slots carry under the physical model: u g_eff, with
    each kept (source, relay) detection error added in every slot that
    relay sends."""
    x = np.einsum("sk,skn->sn", batch.u.astype(np.int64),
                  batch.g_eff.astype(np.int64))
    for p, (src, relay) in enumerate(batch.pairs):
        for j, sender in enumerate(schedule):
            if sender == relay:
                x[:, j] += batch.pair_err[:, p].astype(np.int64) * batch.g_eff[:, src, j]
    return x % 2


def channel_violations(rows: list[list[int]], schedule: list[int], snr_db: float,
                       snc: bool, batch) -> list[str]:
    """Rayleigh statistics and bookkeeping of a simulated batch: gains of
    mean power gamma, unit noise, relay detection errors at the
    single-link rate, selective combining at the Rayleigh-averaged
    error rate, transmitted bits that follow the model."""
    gamma = 10.0 ** (snr_db / 10.0)
    out = []

    def near(name: str, value: float, expected: float, sigma: float) -> None:
        if abs(value - expected) > CHANNEL_SIGMAS * sigma:
            out.append(f"{snr_db} dB: {name} {value:.4g}, expected {expected:.4g} "
                       f"+- {CHANNEL_SIGMAS:g} x {sigma:.2g}")

    G = np.array(rows, dtype=np.uint8)
    own = np.zeros_like(G)
    for j, sender in enumerate(schedule):
        own[sender - 1, j] = 1
    if np.any(batch.g_eff > G) or np.any(batch.g_eff[:, own == 1] != 1):
        out.append(f"{snr_db} dB: g_eff is not G with relayed entries dropped")
    x = transmitted_bits(schedule, batch)
    if not np.array_equal(x, batch.c_hat):
        out.append(f"{snr_db} dB: transmitted bits do not follow u g_eff + "
                   "relay errors")
    m = batch.h.size
    near("mean |h|^2", float(np.mean(np.abs(batch.h) ** 2)), gamma, gamma / math.sqrt(m))
    noise = batch.y - batch.h * (1.0 - 2.0 * x)
    near("mean noise power", float(np.mean(np.abs(noise) ** 2)), 1.0, 1.0 / math.sqrt(m))
    if batch.pair_err.size:
        p1 = rayleigh_mrc_ber(gamma, 1)
        near("relay detection error rate", float(batch.pair_err.mean()), p1,
             math.sqrt(p1 * (1.0 - p1) / batch.pair_err.size))
        kept = batch.pair_err_prob < p1 if snc else np.ones_like(batch.pair_kept)
        if not np.array_equal(batch.pair_kept, kept):
            out.append(f"{snr_db} dB: selective combining kept the wrong detections")
    return out


# -- brute-force MAP --------------------------------------------------------

def brute_map_posteriors(schedule: list[int], batch) -> np.ndarray:
    """P(u_i = 1 | y) by enumerating every data vector and every relay
    detection error, one per (source, relay) pair, in the linear
    Gaussian domain with noise density N0 = 1.

    A relay detects each source once and reuses the estimate in every
    slot it combines, so this is the exact posterior whenever the
    program's per-slot error model is exact (each pair in one slot).
    """
    S, k, n = batch.g_eff.shape
    pairs = list(batch.pairs)
    U = np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.int64)
    E = np.array(list(itertools.product((0, 1), repeat=len(pairs))),
                 dtype=np.int64).reshape(-1, len(pairs))
    g = batch.g_eff.astype(np.int64)                         # (S, k, n)
    # pair p feeds slot j when its relay transmits j and the source was kept
    feed = np.zeros((S, len(pairs), n), dtype=np.int64)
    for p, (src, relay) in enumerate(pairs):
        for j in range(n):
            if schedule[j] == relay:
                feed[:, p, j] = g[:, src, j]
    x_u = np.einsum("mk,skn->smn", U, g) % 2                 # (S, M, n)
    x_e = np.einsum("ep,spn->sen", E, feed) % 2              # (S, E, n)
    x = x_u[:, :, None, :] ^ x_e[:, None, :, :]              # (S, M, E, n)
    s = 1.0 - 2.0 * x
    dist = np.abs(batch.y[:, None, None, :] - batch.h[:, None, None, :] * s) ** 2
    q = batch.pair_err_prob
    with np.errstate(divide="ignore"):
        log_prior = E @ np.log(q).T + (1 - E) @ np.log1p(-q).T   # (E, S)
    log_lik = -dist.sum(axis=3) + log_prior.T[:, None, :]   # (S, M, E)
    log_lik -= log_lik.max(axis=(1, 2), keepdims=True)
    lik = np.exp(log_lik).sum(axis=2)                        # (S, M)
    return (lik @ U) / lik.sum(axis=1, keepdims=True)


# -- loop-based sum-product -------------------------------------------------

def _clip(x: float, lim: float) -> float:
    return max(-lim, min(lim, x))


def _composite_llr(y: complex, h: complex, p: float) -> float:
    """LLR of the relay's error-free bit: the channel LLR b = 4 Re(h* y)
    seen through a binary symmetric relay error of probability p."""
    b = 4.0 * (h.conjugate() * y).real
    if p == 0.0:
        return b
    # ln [((1-p) e^{b/2} + p e^{-b/2}) / (p e^{b/2} + (1-p) e^{-b/2})]
    lp, lq = math.log(p), math.log1p(-p)
    num = max(lq + b / 2, lp - b / 2)
    den = max(lp + b / 2, lq - b / 2)
    num += math.log1p(math.exp(min(lq + b / 2, lp - b / 2) - num))
    den += math.log1p(math.exp(min(lp + b / 2, lq - b / 2) - den))
    return num - den


def loop_sp_llrs(g: np.ndarray, y, h, p_e, iters: int = 4) -> list[float]:
    """Posterior LLRs of the k source bits of one round by flooding
    sum-product on the Tanner graph of [g^T | I_n], written as plain
    loops over checks and edges.

    Near the clamp, atanh turns a one-ulp difference in its argument
    into about 0.05 of LLR, so agreement to LLR_TOL needs the same
    rounding as the decoder: numpy's tanh and arctanh, the product over
    the other edges of a check taken as (left part) * (right part), and
    a variable's message to a check as its total minus what that check
    sent.
    """
    k, n = g.shape
    checks = [[i for i in range(k) if g[i, j]] for j in range(n)]
    lam = [_clip(_composite_llr(complex(y[j]), complex(h[j]), float(p_e[j])),
                 LLR_CLAMP) for j in range(n)]
    t_lam = np.tanh(np.array(lam) / 2.0)
    to_check = {(j, i): 0.0 for j in range(n) for i in checks[j]}
    to_var = dict(to_check)
    for _ in range(iters):
        for j in range(n):
            t = np.tanh(np.clip([to_check[j, i] for i in checks[j]],
                                -LLR_CLAMP, LLR_CLAMP) / 2.0)
            for a, i in enumerate(checks[j]):
                left = 1.0
                for b in range(a):
                    left *= t[b]
                right = 1.0
                for b in range(len(t) - 1, a, -1):
                    right *= t[b]
                prod = _clip(t_lam[j] * (left * right), 1.0 - TANH_EPS)
                to_var[j, i] = 2.0 * float(np.arctanh([prod])[0])
        total = [0.0] * k
        for (j, i), m in to_var.items():
            total[i] += m
        for (j, i) in to_check:
            to_check[j, i] = total[i] - to_var[j, i]
    total = [0.0] * k
    for (j, i), m in to_var.items():
        total[i] += m
    return total


# -- code design ------------------------------------------------------------

def brute_separation(rows: list[list[int]]) -> list[int]:
    """Per-source minimum weight of uG over all u with u_i = 1."""
    k = len(rows)
    U = np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.uint8)
    W = (U.astype(np.int64) @ np.array(rows, dtype=np.int64)) % 2
    w = W.sum(axis=1)
    return [int(w[U[:, i] == 1].min()) for i in range(k)]


def hamming_min_length(k: int) -> int:
    """Smallest n with 2^(n-k) >= n + 1: the shortest binary code of
    dimension k and minimum distance 3."""
    n = k
    while 2 ** (n - k) < n + 1:
        n += 1
    return n


def distance3_by_parity(rows: list[list[int]]) -> bool:
    """Minimum distance >= 3 of a systematic [I | P] code, read off the
    parity-check matrix [P^T | I]: its columns must be nonzero and
    distinct, i.e. every row of P has weight >= 2 and the rows differ."""
    k = len(rows)
    if any(rows[i][:k] != [int(r == i) for r in range(k)] for i in range(k)):
        return False
    parity = [tuple(r[k:]) for r in rows]
    return all(sum(p) >= 2 for p in parity) and len(set(parity)) == k


def griesmer_length(d: int, k: int) -> int:
    """Griesmer bound: a binary code of dimension k and distance d needs
    at least sum_{i<k} ceil(d / 2^i) positions."""
    return sum(-(-d // 2 ** i) for i in range(k))


def griesmer_max_distance(n: int, k: int) -> int:
    """Largest d whose Griesmer length fits in n."""
    d = 0
    while griesmer_length(d + 1, k) <= n:
        d += 1
    return d


def gilbert_distance(n: int, k: int) -> int:
    """Largest d with sum_{i<d} C(n, i) <= 2^(n-k).  A lexicode of
    distance d has covering radius at most d - 1, hence dimension at
    least n - log2 V(n, d-1); so the greedy design reaches this d with
    at least k rows."""
    d = 1
    while sum(math.comb(n, i) for i in range(d + 1)) <= 2 ** (n - k):
        d += 1
    return d


def repetition_split(k: int, n: int) -> tuple[int, int, float]:
    """(min, max, mean) repetitions when n slots are shared by k sources."""
    return n // k, -(-n // k), n / k
