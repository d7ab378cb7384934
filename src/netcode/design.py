"""Network code construction and analysis.

A network code is a (k, n) generator matrix over GF(2) together with a
transmit schedule assigning one source node to each slot.  Per-source
minimum distances (the separation vector) drive all diversity claims, so
they are computed exactly by enumerating error data vectors.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .gf2 import BitMatrix, column_select, is_systematic_prefix

__all__ = [
    "NetworkCode",
    "TradeoffPoint",
    "SearchLimitError",
    "separation_vector",
    "greedy_code",
    "code_for_requirements",
    "puncture",
    "default_schedule",
    "repetition_baseline",
    "repetition_code",
    "rate_advantage",
    "network_code",
]

# Exhaustive enumeration of the 2^k codewords; memory stays at one
# 2^16-word table, so the limit is one of time (about 3 s at k = 28).
MAX_SEP_DIMENSION = 28

# Rows spanned by the codeword table of `separation_vector`.
_TABLE_ROWS = 16

# Entries of the coset table one lexicode pass may build; each bit can
# double the table, so a pass peaks below 2x this (about 1.4 GB), while
# k = 3 at d = 14 needs 4.2 M entries.
MAX_COSET_TABLE = 1 << 23


def separation_vector(G: BitMatrix) -> tuple[int, ...]:
    """Per-source minimum distances of the code generated by G.

    d[i] is the minimum Hamming weight of uG over all data vectors u
    with u[i] = 1.  Enumerates all 2^k codewords in 2^(k-L) chunks over
    one table of the span of the low L = min(k, 16) rows.  The chunks
    walk the combinations of the high rows in Gray-code order, so each
    costs one XOR of the table with a running sum of high rows.
    """
    k = G.rows
    if k == 0:
        return ()
    if k > MAX_SEP_DIMENSION:
        raise ValueError(f"dimension {k} exceeds practical limit {MAX_SEP_DIMENSION}")
    for i, m in enumerate(G.row_masks):
        if m == 0:
            raise ValueError(f"row {i} is all-zero; separation undefined")
    L = min(k, _TABLE_ROWS)
    high = G.row_masks[L:]
    # table[j] = codeword for the data vector whose low bits are the bits of j
    table = np.zeros(1, dtype=np.uint64)
    for m in G.row_masks[:L]:
        table = np.concatenate([table, table ^ np.uint64(m)])
    d = [G.cols] * k
    offset = 0
    for c in range(1 << len(high)):
        if c:
            offset ^= high[(c & -c).bit_length() - 1]
        w = np.bitwise_count(table ^ np.uint64(offset))
        for i in reversed(range(L)):
            # the upper half holds the indices with bit i set; folding the
            # halves together keeps the lower bits and leaves the overall
            # minimum in w[0] after the last fold
            half = len(w) >> 1
            d[i] = min(d[i], int(w[half:].min()))
            w = np.minimum(w[:half], w[half:])
        gray = c ^ (c >> 1)
        for j in range(len(high)):
            if gray >> j & 1:
                d[L + j] = min(d[L + j], int(w[0]))
    return tuple(d)


class SearchLimitError(ValueError):
    """A lexicode pass whose coset table outgrew `MAX_COSET_TABLE`."""


def _lexicode(n: int, d: int) -> Iterator[int]:
    """Basis rows of the binary lexicode of length n and minimum distance
    >= d, yielded in the order they are admitted.

    Vectors are admitted greedily in lexicographic order, starting from
    zero, whenever their distance to every previously admitted vector is
    at least d; the admitted set is linear.  Ordering follows the
    packed-int convention (coordinate 0 least significant), i.e. plain
    integer order on the masks.  The row admitted at bit p depends only
    on the bits below p, so lexicodes are nested in n: a caller that
    needs a prefix of the rows stops the pass there.  Raises
    SearchLimitError once its coset table outgrows `MAX_COSET_TABLE`.
    """
    if not (n >= d >= 1):
        raise ValueError(f"require n >= d >= 1, got n={n}, d={d}")
    rows: list[int] = []
    tops = 0  # the rows' top bits
    # Any new basis vector with most significant bit p is 2^p + r with
    # r in [0, 2^p).  It is admitted iff its coset modulo the current span
    # contains no vector of weight <= d-2 (codewords all live below bit p,
    # which contributes weight 1 on its own).  `covered` maps the least
    # element of each such coset to its least weight below bit p.  The
    # rows are fully reduced, so the least element is linear: each bit
    # XORs that of 2^(p-1), t, into every entry of weight < d-2.
    covered = {0: 0} if d >= 2 else {}
    for p in range(n):
        if p:
            top = 1 << (p - 1)
            t = rows[-1] ^ top if tops & top else top
            for c in list(covered):
                w = covered[c] + 1
                if w <= d - 2 and covered.get(t ^ c, d) > w:
                    covered[t ^ c] = w
            if len(covered) > MAX_COSET_TABLE:
                raise SearchLimitError(
                    f"the lexicode search at distance {d} needs more than "
                    f"{MAX_COSET_TABLE} cosets by length {p + 1}")
        # The least such r is the least element of its coset, so it has
        # none of the rows' top bits: scan only the submasks of the other
        # bits below p, in increasing order (Conway & Sloane 1986); the
        # step (r - free) & free wraps to 0 after the last submask.
        free = ((1 << p) - 1) & ~tops
        r = 0
        while r in covered:
            r = (r - free) & free
            if not r:
                break
        else:
            yield (1 << p) | r
            rows.append((1 << p) | r)
            tops |= 1 << p


def greedy_code(n: int, d: int) -> BitMatrix:
    """Binary lexicode of length n and distance >= d: all rows of `_lexicode`."""
    basis = tuple(_lexicode(n, d))
    return BitMatrix(basis, len(basis), n)


def _systematize(G: BitMatrix) -> BitMatrix:
    """Row-reduce (and column-permute if needed) to [I_k | P] form.

    Column permutation preserves length, dimension, and the separation
    vector as computed per basis row.
    """
    k, n = G.rows, G.cols
    masks = list(G.row_masks)
    pivots: list[int] = []
    rows_done: list[int] = []
    remaining = masks
    for col in range(n):
        bit = 1 << col
        hit = None
        for idx, m in enumerate(remaining):
            if m & bit:
                hit = idx
                break
        if hit is None:
            continue
        piv = remaining.pop(hit)
        rows_done = [r ^ piv if r & bit else r for r in rows_done]
        remaining = [r ^ piv if r & bit else r for r in remaining]
        rows_done.append(piv)
        pivots.append(col)
        if len(pivots) == k:
            break
    if len(pivots) < k:
        raise ValueError("rows are linearly dependent; cannot systematize")
    order = pivots + [j for j in range(n) if j not in pivots]
    return column_select(BitMatrix(tuple(rows_done), k, n), order)


def default_schedule(G: BitMatrix) -> tuple[int, ...]:
    """Schedule with systematic slots owned by their sources and combined
    slots balanced across eligible transmitters (ties to the lowest index)."""
    if not is_systematic_prefix(G):
        raise ValueError("generator matrix is not systematic in its first k columns")
    k, n = G.rows, G.cols
    counts = [1] * k  # each source transmits its own systematic slot
    v = list(range(1, k + 1))
    for j in range(k, n):
        candidates = [i for i in range(k) if G.entry(i, j)]
        if not candidates:
            raise ValueError(f"column {j} is all-zero")
        pick = min(candidates, key=lambda i: (counts[i], i))
        counts[pick] += 1
        v.append(pick + 1)
    return tuple(v)


@dataclass(frozen=True)
class NetworkCode:
    """A (k, n) generator matrix with its transmit schedule.

    Everything derived from these two (separation vector, schedule
    check, Tanner checks, relay detections) is computed on first use and
    cached, outside the fields that equality and hashing see.
    """

    G: BitMatrix
    v: tuple[int, ...]

    @property
    def k(self) -> int:
        return self.G.rows

    @property
    def n(self) -> int:
        return self.G.cols

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.n)

    @cached_property
    def sep(self) -> tuple[int, ...]:
        """Separation vector; computed once and cached."""
        return separation_vector(self.G)

    @cached_property
    def check_sources(self) -> tuple[tuple[int, ...], ...]:
        """Sources combined in each slot (0-based): check j of the Tanner
        graph ties coded bit j to these source bits."""
        return tuple(tuple(i for i, m in enumerate(self.G.row_masks) if m >> j & 1)
                     for j in range(self.n))

    @cached_property
    def relay_pairs(self) -> tuple[tuple[int, int], ...]:
        """Distinct (source, relay) detections within one round, sorted.

        Sources are 0-based; relays are 1-based node labels from the
        schedule.  A relay detects each source once and reuses the
        estimate in every slot where it combines that source.
        """
        return tuple(sorted({(i, relay) for relay, srcs in zip(self.v, self.check_sources)
                             for i in srcs if i != relay - 1}))

    @cached_property
    def slot_pairs(self) -> tuple[tuple[int, ...], ...]:
        """For each slot, the indices into `relay_pairs` of the detections
        its relay combines there, by source."""
        index = {pair: idx for idx, pair in enumerate(self.relay_pairs)}
        return tuple(tuple(index[i, relay] for i in srcs if i != relay - 1)
                     for relay, srcs in zip(self.v, self.check_sources))

    @cached_property
    def schedule_violations(self) -> tuple[str, ...]:
        """Every broken schedule invariant, as a message; empty when the
        schedule is valid.  Checked once per code and cached."""
        G, v, k = self.G, self.v, self.k
        violations = [f"row {i} of G is all-zero"
                      for i, m in enumerate(G.row_masks) if m == 0]
        for j, srcs in enumerate(self.check_sources):
            if not 1 <= v[j] <= k:
                violations.append(f"slot {j}: transmitter {v[j]} outside 1..{k}")
                continue
            if not G.entry(v[j] - 1, j):
                violations.append(f"slot {j}: transmitter {v[j]} has a zero encoding coefficient")
            for i in srcs:
                heard = any(v[m] == i + 1 and G.entry(i, m) for m in range(j))
                if i != v[j] - 1 and not heard:
                    violations.append(
                        f"slot {j}: causality violation, source {i + 1} not yet transmitted")
        return tuple(violations)

    def to_json_dict(self) -> dict:
        flat = [b for row in self.G.to_lists() for b in row]
        return {"k": self.k, "n": self.n, "G": flat, "v": list(self.v),
                "sep": list(self.sep)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "NetworkCode":
        """Parse the form `to_json_dict` writes (its `sep` is ignored); a
        missing, mistyped or unknown field raises ValueError naming it."""
        if type(obj) is not dict:
            raise ValueError("expected a JSON object with k, n, G and v")
        if not obj.keys() <= _CODE_KEYS:
            unknown = sorted(obj.keys() - _CODE_KEYS)
            raise ValueError(f"unknown code key(s): {', '.join(unknown)}")
        k, n, flat, v = obj.get("k"), obj.get("n"), obj.get("G"), obj.get("v")
        if type(k) is not int or k < 1:
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        # JSON true and 1.0 equal 1 but print as "True" and "1.0": G holds
        # only 0s and 1s when its entries print as one binary digit each
        bits = "".join(map(repr, flat)) if type(flat) is list else None
        if bits is None or len(bits) != len(flat) or not set(bits) <= {"0", "1"}:
            raise ValueError("G must be a list of integers 0 and 1")
        if len(flat) != k * n:
            raise ValueError("G array length does not match k*n")
        if type(v) is not list or len(v) != n or not set(map(type, v)) <= {int}:
            raise ValueError(f"v must be a list of n = {n} integers")
        # bit i*n + j of the reversed digits is G[i][j]
        packed, mask = int(bits[::-1], 2), (1 << n) - 1
        rows = tuple(packed >> i * n & mask for i in range(k))
        return network_code(BitMatrix(rows, k, n), v)


# Keys of a code's JSON form; `sep` is derived and written for readers.
_CODE_KEYS = {"k", "n", "G", "v", "sep"}


def network_code(G: BitMatrix, v: Sequence[int]) -> NetworkCode:
    if len(v) != G.cols:
        raise ValueError("schedule length must equal the number of slots")
    return NetworkCode(G, tuple(int(x) for x in v))


def _scheduled_code(B: BitMatrix) -> NetworkCode:
    """The systematic form of B with its default schedule."""
    G = _systematize(B)
    return network_code(G, default_schedule(G))


def code_for_requirements(k: int, d: int) -> NetworkCode:
    """Smallest-length greedy code covering k sources at distance d: the
    first k rows of one lexicode pass, cut at the k-th row's top bit."""
    if k < 1 or d < 1:
        raise ValueError("require k >= 1 and d >= 1")
    rows = tuple(islice(_lexicode(k * d, d), k))
    if len(rows) < k:  # the repetition code bounds n by k*d
        raise RuntimeError(f"fewer than {k} rows at distance {d} below bit {k * d}")
    return _scheduled_code(BitMatrix(rows, k, rows[-1].bit_length()))


def puncture(code: NetworkCode, drop: Sequence[int]) -> NetworkCode:
    """Remove the given columns (and schedule entries)."""
    dropset = set()
    for j in drop:
        if not 0 <= j < code.n:
            raise ValueError(f"column index {j} out of range")
        if j in dropset:
            raise ValueError(f"duplicate column index {j}")
        dropset.add(j)
    keep = [j for j in range(code.n) if j not in dropset]
    G = column_select(code.G, keep)
    for i, m in enumerate(G.row_masks):
        if m == 0:
            raise ValueError(f"puncturing leaves row {i} all-zero")
    return network_code(G, tuple(code.v[j] for j in keep))


@dataclass(frozen=True)
class TradeoffPoint:
    """Rate plus separation-vector statistics of one code."""

    rate: Fraction
    d_min: int
    d_max: int
    d_avg: float


def repetition_baseline(k: int, n: int) -> TradeoffPoint:
    """Each source repeats its own symbol; no cooperation."""
    if n < k:
        raise ValueError(f"need at least one slot per source (k={k}, n={n})")
    reps = [n // k + (1 if i < n % k else 0) for i in range(k)]
    return TradeoffPoint(Fraction(k, n), min(reps), max(reps), sum(reps) / k)


def repetition_code(k: int, n: int) -> NetworkCode:
    """Generator/schedule realization of the repetition baseline."""
    if n < k:
        raise ValueError(f"need at least one slot per source (k={k}, n={n})")
    reps = [n // k + (1 if i < n % k else 0) for i in range(k)]
    # order extra slots round-robin after the systematic prefix
    extra = []
    remaining = [reps[i] - 1 for i in range(k)]
    while any(remaining):
        for i in range(k):
            if remaining[i]:
                extra.append(i + 1)
                remaining[i] -= 1
    v = tuple(list(range(1, k + 1)) + extra)
    masks = [0] * k
    for j, src in enumerate(v):
        masks[src - 1] |= 1 << j
    return network_code(BitMatrix(tuple(masks), k, n), v)


def rate_advantage(k: int, d: int) -> float:
    """Rate of the smallest greedy design relative to repetition (rate 1/d)."""
    if k < 1 or d < 1:
        raise ValueError("require k >= 1 and d >= 1")
    code = code_for_requirements(k, d)
    return float(Fraction(k, code.n) / Fraction(1, d))
