"""Cooperative round simulation: relay detection errors, reliabilities,
selective encoding, Rayleigh fading, and destination observations.

All randomness flows through an explicit numpy Generator.  Draw order is
fixed (data bits, relay link SNRs, relay error uniforms, destination
gains, noise) so a seeded round is reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .design import NetworkCode

__all__ = [
    "FadingModel",
    "SncPolicy",
    "RoundBatch",
    "link_error_prob",
    "snc_threshold",
    "combine_reliability",
    "simulate_rounds",
]

FADING_MODES = ("block_iid", "per_source_static")


@dataclass(frozen=True)
class FadingModel:
    """Destination-link fading: independent per slot, or one static gain
    per transmitting source within a round."""

    mode: str = "block_iid"
    mean_snr: float = 1.0

    def __post_init__(self):
        if self.mode not in FADING_MODES:
            raise ValueError(f"unknown fading mode {self.mode!r}")
        if not self.mean_snr > 0:
            raise ValueError("mean SNR must be positive")


@dataclass(frozen=True)
class SncPolicy:
    """Selective encoding: drop a detected symbol from the combination
    when its instantaneous error probability reaches the fading-averaged
    threshold."""

    enabled: bool = False


def link_error_prob(gamma):
    """BPSK coherent-detection error probability at instantaneous SNR
    gamma: the Gaussian tail Q(sqrt(2 gamma))."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("SNR must be non-negative")
    # 0.5 erfc(sqrt(2 g) / sqrt(2)), one operation at a time in one buffer
    x = np.multiply(g, 2.0, out=np.empty_like(g))
    np.sqrt(x, out=x)
    np.divide(x, np.sqrt(2.0), out=x)
    erfc(x, out=x)
    np.multiply(x, 0.5, out=x)
    return x if x.ndim else x[()]


def snc_threshold(mean_snr: float) -> float:
    """Rayleigh-averaged BPSK error probability at average SNR mean_snr,
    0.5 (1 - sqrt(m / (1 + m))) in a form that does not cancel."""
    if not mean_snr > 0:
        raise ValueError("mean SNR must be positive")
    return 0.5 / ((1.0 + mean_snr) * (1.0 + np.sqrt(mean_snr / (1.0 + mean_snr))))


def combine_reliability(per_source_errs):
    """Probability that an odd number of the given independent detection
    errors occurred (error probability of the XOR combination), reduced
    over the last axis."""
    p = np.asarray(per_source_errs, dtype=float)
    if np.any((p < 0) | (p > 0.5)):
        raise ValueError("detection error probabilities must lie in [0, 1/2]")
    # the product over the last axis, one column at a time in order: the
    # same bits as np.prod, which runs a short inner loop per row
    acc = np.ones(p.shape[:-1])
    for j in range(p.shape[-1]):
        acc *= 1.0 - 2.0 * p[..., j]
    return (1.0 - acc) / 2.0


@dataclass
class RoundBatch:
    """Vectorized batch of simulated rounds (leading axis = round)."""

    u: np.ndarray            # (B, k) data bits
    c: np.ndarray            # (B, n) error-free codeword under g_eff
    e: np.ndarray            # (B, n) realized relay errors
    c_hat: np.ndarray        # (B, n) transmitted bits, c ^ e
    p_e: np.ndarray          # (B, n) slot reliabilities
    h: np.ndarray            # (B, n) complex destination gains
    y: np.ndarray            # (B, n) complex observations
    g_eff: np.ndarray        # (B, k, n) instantaneous generator matrices
    pairs: list[tuple[int, int]]
    pair_err_prob: np.ndarray  # (B, P) instantaneous detection error probs
    pair_err: np.ndarray       # (B, P) realized detection errors
    pair_kept: np.ndarray      # (B, P) True where the detection was combined
    error_free: bool = False

    def __len__(self) -> int:
        return self.u.shape[0]


def simulate_rounds(
    code: NetworkCode,
    fading: FadingModel,
    snc: SncPolicy,
    rng: np.random.Generator,
    batch: int,
    genie: bool = False,
) -> RoundBatch:
    """Simulate `batch` independent rounds.

    With `genie=True` the relays never err: detections are error-free and
    the reported reliabilities are zero, below the selective-encoding
    threshold, so every detection is combined.
    """
    if code.schedule_violations:
        raise ValueError("invalid schedule: " + "; ".join(code.schedule_violations))
    k, n = code.k, code.n
    G = code.G.to_array()  # (k, n)
    u = rng.integers(0, 2, size=(batch, k)).astype(np.uint8)

    pairs = code.relay_pairs
    P = len(pairs)
    if genie:
        pair_err_prob = np.zeros((batch, P))
        pair_err = np.zeros((batch, P), dtype=np.uint8)
    else:
        gammas = rng.exponential(fading.mean_snr, size=(batch, P))
        pair_err_prob = link_error_prob(gammas)
        uni = rng.random(size=(batch, P))
        pair_err = (uni < pair_err_prob).astype(np.uint8)
    kept = (pair_err_prob < snc_threshold(fading.mean_snr) if snc.enabled
            else np.ones((batch, P), dtype=bool))

    # instantaneous generator matrix after selective encoding
    g_eff = np.broadcast_to(G, (batch, k, n)).copy()
    e = np.zeros((batch, n), dtype=np.uint8)
    p_e = np.zeros((batch, n))
    for j, slot in enumerate(code.slot_pairs):
        if not slot:
            continue
        keep_j = kept[:, slot]                    # (B, m)
        g_eff[:, [pairs[idx][0] for idx in slot], j] = keep_j
        p_e[:, j] = combine_reliability(np.where(keep_j, pair_err_prob[:, slot], 0.0))
        e[:, j] = np.bitwise_xor.reduce(pair_err[:, slot] & keep_j, axis=1)

    c = np.einsum("bk,bkn->bn", u, g_eff) % 2     # uint8, as u and g_eff
    c_hat = c ^ e

    # one gain per slot, or one per transmitting source held over its slots
    # (block fading takes its draw as is, a view in round-major layout);
    # h, the noise w and y = h s + w are written through their real and
    # imaginary parts, the draws in the order real h, imag h, real w, imag w
    es = fading.mean_snr  # N0 = 1, symbol energy swept through the gain variance
    owners, col = ((range(n), slice(None)) if fading.mode == "block_iid"
                   else np.unique(code.v, return_inverse=True))
    h = np.empty((batch, len(owners)), dtype=complex)
    for part in (h.real, h.imag):
        np.multiply(rng.standard_normal(part.shape), np.sqrt(es / 2.0), out=part)
    h = h[:, col]
    s = 1.0 - 2.0 * c_hat
    y = np.empty((batch, n), dtype=complex)
    for part, h_part in ((y.real, h.real), (y.imag, h.imag)):
        np.multiply(h_part, s, out=part)
        part += np.sqrt(0.5) * rng.standard_normal((batch, n))

    return RoundBatch(u=u, c=c, e=e, c_hat=c_hat, p_e=p_e, h=h, y=y,
                      g_eff=g_eff, pairs=list(pairs), pair_err_prob=pair_err_prob,
                      pair_err=pair_err, pair_kept=kept, error_free=genie)
