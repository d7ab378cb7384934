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
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .gf2 import BitMatrix, is_systematic_prefix

__all__ = [
    "NetworkCode",
    "TradeoffPoint",
    "SearchLimitError",
    "separation_vector",
    "greedy_code",
    "code_for_requirements",
    "scheduled_code",
    "default_schedule",
    "repetition_baseline",
    "repetition_code",
    "rate_advantage",
    "network_code",
    "TradeoffRow",
    "tradeoff_table",
]

# Enumeration of the codewords whose unit-column bound is below the
# heaviest row's weight; memory stays at one 2^16-word table and a
# buffer of its size, so the limit is one of time.  Every systematic
# design, and any code with unit columns, is pruned: the d = 3 design
# at k = 28 takes about 1 ms.  With no unit column all 2^k codewords
# are enumerated, about 0.2-0.3 s at k = 28.
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
    with u[i] = 1, and u = e_i gives d[i] <= wt(row i) <= D, the weight
    of the heaviest row.  A source whose unit vector e_i is a column of
    G adds 1 to wt(uG) whenever u[i] = 1, so a u that sets D or more
    such sources can lower no entry and is never visited.  That prunes
    every systematic design and any code with unit columns; with no
    unit column all 2^k codewords are enumerated.

    The codewords come in chunks over one table of the span of the low
    L = min(k, 16) rows, each chunk one combination of the high rows.
    The chunks go in order of their bound, up to the first that reaches
    D; with high rows the table too is stored in order of its bound,
    and a chunk scans only the prefix whose total bound is below D.
    The lightest weights at each table index (`least`) and in each
    chunk (`light`) are folded into the distances at the end.  Memory
    stays at the table, one buffer of its size and the weight arrays;
    each codeword is held in 64 bits, so n is at most 64.
    """
    k = G.rows
    if k == 0:
        return ()
    if k > MAX_SEP_DIMENSION:
        raise ValueError(f"k = {k}: more sources than the separation vector "
                         f"allows ({MAX_SEP_DIMENSION})")
    if G.cols > 64:
        raise ValueError(f"n = {G.cols}: the separation vector's codeword "
                         f"table holds at most 64 slots")
    for i, m in enumerate(G.row_masks):
        if m == 0:
            raise ValueError(f"row {i} is all-zero; separation undefined")
    d = [m.bit_count() for m in G.row_masks]
    D = max(d)
    L = min(k, _TABLE_ROWS)
    high = G.row_masks[L:]
    # Only the chunks need the table in order of the bound: with no high
    # rows the plain span is as cheap to build and to fold
    unit = _unit_columns(G.row_masks) if high else [0] * k
    table, ends = _span_by_bound(G.row_masks[:L], unit[:L], D)
    least = np.bitwise_count(table)  # chunk 0 is the table itself
    if high:
        chunks, chunk_ends = _span_by_bound(high, unit[L:], D)
        light = _scan_chunks(table, ends, least, chunks, chunk_ends, D)
        _fold(light, chunks, unit[L:], D, d, L)
    _fold(least, table, unit[:L], D, d, 0)
    return tuple(d)


def _unit_columns(rows: Sequence[int]) -> list[int]:
    """Per row i, the columns whose only one is in row i: the columns
    equal to e_i."""
    once = twice = 0  # the columns with at least one and two ones
    for m in rows:
        twice |= once & m
        once |= m
    return [m & once & ~twice for m in rows]


def _span_by_bound(rows: Sequence[int], unit: Sequence[int],
                   D: int) -> tuple[np.ndarray, list[int]]:
    """The codewords of the data vectors over `rows` whose bound is below
    D, in order of the bound.

    Returns a (blocks, 2^f) array and the index of the first block of
    each level, then the number of blocks.  Each block is the span of
    the f rows with no unit column, its index bits those rows in order,
    XORed with the codeword of one set of the rows with one; a block's
    level is the size of its set.
    """
    free = [m for m, u in zip(rows, unit) if not u]
    span = np.zeros(1 << len(free), dtype=np.uint64)
    for j, m in enumerate(free):
        # the upper half of the first 2^(j+1) entries is the lower XOR m
        np.bitwise_xor(span[:1 << j], np.uint64(m), out=span[1 << j:2 << j])
    blocks, ends = span[None], [0, 1]
    for m, u in zip(rows, unit):
        if u:
            # every level below D - 1 gains its blocks XOR m one level up,
            # stored just ahead of that level's own blocks
            cut = ends[min(len(ends), D) - 1]
            moved = blocks[:cut] ^ np.uint64(m)
            levels = list(zip(ends, ends[1:]))
            top = [2 * cut] if cut == ends[-1] else []  # a new level
            blocks = np.concatenate([p for s, e in levels for p in (blocks[s:e], moved[s:e])])
            ends = [0] + [e + min(s, cut) for s, e in levels] + top
    return blocks, ends


def _scan_chunks(table: np.ndarray, ends: list[int], least: np.ndarray,
                 chunks: np.ndarray, chunk_ends: list[int], D: int) -> np.ndarray:
    """Visit every chunk but chunk 0, lowering `least`, laid out as
    `table`, to the lightest weight at each table index; returns the
    lightest weight in each chunk, laid out as `chunks`."""
    flat, offsets, flat_least = table.ravel(), chunks.ravel(), least.ravel()
    light = np.full(len(offsets), 255, dtype=np.uint8)  # above any weight
    buf, w = np.empty_like(flat), np.empty_like(flat_least)
    for c in range(len(chunk_ends) - 1):
        # the chunks of bound c, against the table's levels below D - c
        size = ends[min(D - c, len(ends) - 1)] * table.shape[1]
        step = len(flat) // size
        part, low = flat[:size], flat_least[:size]
        xs = buf[:step * size].reshape(step, size)
        ws = w[:step * size].reshape(step, size)
        lo, hi = (e * chunks.shape[1] for e in chunk_ends[c:c + 2])
        for h in range(max(lo, 1), hi, step):
            hs = offsets[h:min(h + step, hi), None]
            x, wt = xs[:len(hs)], ws[:len(hs)]
            np.bitwise_count(np.bitwise_xor(part, hs, out=x), out=wt)
            # a batch of one chunk is its own minimum
            np.minimum(low, wt[0] if len(wt) == 1 else np.minimum.reduce(wt), out=low)
            np.minimum.reduce(wt, axis=1, out=light[h:h + len(wt)])
    return light.reshape(chunks.shape)


def _fold(least: np.ndarray, blocks: np.ndarray, unit: Sequence[int], D: int,
          d: list[int], first: int):
    """Lower d[first + i], for each of the rows of one `_span_by_bound`,
    to the least weight in `least` (laid out as its blocks) with row i set."""
    # the upper half of each block holds the indices with the top free
    # row set; folding the halves together keeps the lower rows (one
    # block folds as a flat array).  A free row's e_i has bound 0, so
    # it was visited and its half holds no more than wt(row i)
    least = least[0] if len(least) == 1 else least.T
    for i in reversed([i for i, u in enumerate(unit) if not u]):
        half = len(least) >> 1
        d[first + i] = int(np.minimum.reduce(least[half:], axis=None))
        least = np.minimum(least[:half], least[half:])
    if any(unit):
        # a block's set holds row i iff its first codeword, the set's own,
        # has row i's unit columns; take the blocks lightest first
        least, heads = least.ravel(), blocks[:, 0]
        for v in range(int(np.minimum.reduce(least)), D):
            hit = int(np.bitwise_or.reduce(heads[least == v]))
            for i, u in enumerate(unit):
                if hit & u:
                    d[first + i] = min(d[first + i], v)


class SearchLimitError(ValueError):
    """A lexicode pass whose coset table outgrew `MAX_COSET_TABLE`."""


def _check_table(size: int, d: int, p: int):
    """Raise SearchLimitError if a coset table of `size` entries at bit p
    outgrows `MAX_COSET_TABLE`."""
    if size > MAX_COSET_TABLE:
        raise SearchLimitError(
            f"the lexicode search at distance {d} needs more than "
            f"{MAX_COSET_TABLE} cosets by length {p + 1}")


def _weight_ball(p: int, radius: int, cap: int) -> int:
    """Number of length-p vectors of weight <= radius, or some number
    above `cap` once the count passes it."""
    total = term = int(radius >= 0)
    for w in range(1, min(radius, p) + 1):
        if total > cap:
            break
        term = term * (p - w + 1) // w
        total += term
    return total


def _griesmer_length(k: int, d: int) -> int:
    """Griesmer bound: no binary linear code of dimension k and minimum
    distance d is shorter than sum over i < k of ceil(d / 2^i)."""
    return sum(-(-d // 2**i) for i in range(k))


def _lexicode(n: int, d: int, k: int) -> Iterator[int]:
    """Basis rows of the binary lexicode of length n and minimum distance
    >= d, yielded in the order they are admitted; the pass stops after
    the k-th row.

    Vectors are admitted greedily in lexicographic order, starting from
    zero, whenever their distance to every previously admitted vector is
    at least d; the admitted set is linear.  Ordering follows the
    packed-int convention (coordinate 0 least significant), i.e. plain
    integer order on the masks.  The row admitted at bit p depends only
    on the bits below p, so lexicodes are nested in n: a caller that
    needs a prefix of the rows stops the pass there.  Raises
    SearchLimitError once its coset table outgrows `MAX_COSET_TABLE`,
    or up front when the length the pass must reach forces that.
    """
    if not (n >= d >= 1):
        raise ValueError(f"require n >= d >= 1, got n={n}, d={d}")
    # A floor on the table at the bit p of the pass's last row (at least
    # the Griesmer length, less one), checked before the pass builds any:
    # two vectors of weight <= (d-1)/2 differ by less than d, so each lies
    # in a coset of its own; and the vectors of weight <= d-2 below p fill
    # cosets of 2^(k-1) vectors at most, since fewer than k rows lie below
    # the k-th.
    p = min(n, _griesmer_length(k, d)) - 1
    cosets = _weight_ball(p, (d - 1) // 2, MAX_COSET_TABLE)
    ball = _weight_ball(p, d - 2, MAX_COSET_TABLE << (k - 1))
    cosets = max(cosets, -(-ball >> (k - 1)))
    _check_table(cosets, d, p)
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
            _check_table(len(covered), d, p)
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
            if len(rows) == k:
                return


def greedy_code(n: int, d: int) -> BitMatrix:
    """Binary lexicode of length n and distance >= d: all rows of
    `_lexicode`.  Raises ValueError once the pass admits a row past
    `MAX_SEP_DIMENSION`, which no separation vector covers; a pass with
    at most that many rows runs to n, whose table floor is checked first."""
    _check_table(_weight_ball(n - 1, (d - 1) // 2, MAX_COSET_TABLE), d, n - 1)
    basis = tuple(_lexicode(n, d, MAX_SEP_DIMENSION + 1))
    if len(basis) > MAX_SEP_DIMENSION:
        raise ValueError(f"the greedy code at distance {d} has more than "
                         f"{MAX_SEP_DIMENSION} sources")
    return BitMatrix(basis, len(basis), n)


def _systematize(G: BitMatrix) -> BitMatrix:
    """Row-reduce (and column-permute if needed) to [I_k | P] form, in one
    Gauss-Jordan pass over the rows: each held row's pivot is its lowest
    one, which no other held row has.  Column permutation preserves
    length, dimension, and the separation vector as computed per basis row.
    """
    held: dict[int, int] = {}  # pivot bit -> reduced row
    for m in G.row_masks:
        for bit, r in held.items():
            if m & bit:
                m ^= r
        if m == 0:
            raise ValueError("rows are linearly dependent; cannot systematize")
        low = m & -m
        for bit, r in held.items():
            if r & low:
                held[bit] = r ^ m
        held[low] = m
    # column pos of the result is column order[pos] of the reduced rows
    rows = [held[bit] for bit in sorted(held)]
    pivots = [(m & -m).bit_length() - 1 for m in rows]
    order = pivots + sorted(set(range(G.cols)).difference(pivots))
    masks = tuple(sum((m >> j & 1) << pos for pos, j in enumerate(order))
                  for m in rows)
    return BitMatrix(masks, G.rows, G.cols)


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


class SpPlan(NamedTuple):
    """The Tanner graph's edges laid out for sum-product decoding.

    Edges are stored with those of the multi-source checks first, then
    those of the degree-1 checks, each group in edge order (by check,
    then by source).  A degree-1 check's message is fixed per batch.
    `sums` lists every edge in edge order, so a source's total adds its
    messages in the same order in every iteration.
    """

    src: np.ndarray                     # (E,) source of each stored edge
    chk: np.ndarray                     # (E,) check of each stored edge
    loopy: int                          # multi-source edges, stored first
    spans: tuple[tuple[int, int], ...]  # stored [lo, hi) of each multi-source check
    sums: tuple[tuple[int, int], ...]   # (source, stored edge), in edge order


@dataclass(frozen=True)
class NetworkCode:
    """A (k, n) generator matrix with its transmit schedule.

    Everything derived from these two (separation vector, schedule
    check, Tanner checks, sum-product plan, relay detections) is computed
    on first use and cached, outside the fields that equality and
    hashing see.
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
    def plan(self) -> SpPlan:
        """Edge layout of the sum-product decoder; built once per code."""
        checks = self.check_sources
        edges = [(j, i) for j, srcs in enumerate(checks) for i in srcs]
        order = sorted(range(len(edges)), key=lambda e: len(checks[edges[e][0]]) == 1)
        where = {e: pos for pos, e in enumerate(order)}
        sums = tuple((i, where[e]) for e, (_, i) in enumerate(edges))
        spans, hi = [], 0
        for srcs in checks:
            if len(srcs) > 1:
                spans.append((hi, hi + len(srcs)))
                hi += len(srcs)
        src, chk = (np.array([edges[e][c] for e in order], dtype=np.intp) for c in (1, 0))
        src.flags.writeable = chk.flags.writeable = False
        return SpPlan(src, chk, hi, tuple(spans), sums)

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


def scheduled_code(B: BitMatrix) -> NetworkCode:
    """The systematic form of B with its default schedule."""
    G = _systematize(B)
    return network_code(G, default_schedule(G))


def _prefix(k: int, d: int, n: int | None = None) -> BitMatrix | None:
    """The first k rows of the lexicode at distance d, cut at the k-th
    row's top bit: the shortest greedy code with k sources at distance d.

    The pass runs to length n and stops at its k-th row; None means it
    admits fewer than k rows below n.  Without n it runs to k*d, below
    which it always has k rows: d ones just above a row's top bit are at
    distance d from the span below, so each row's top bit is at most d
    above the last's.
    """
    if k < 1 or d < 1:
        raise ValueError(f"require k >= 1 and d >= 1, got k={k}, d={d}")
    length = k * d if n is None else n
    # no pass admits k rows below the Griesmer length
    rows = tuple(_lexicode(length, d, k)) if _griesmer_length(k, d) <= length else ()
    return BitMatrix(rows, k, rows[-1].bit_length()) if len(rows) == k else None


def code_for_requirements(k: int, d: int) -> NetworkCode:
    """Smallest-length greedy code covering k sources at distance d, in
    systematic form with its default schedule."""
    return scheduled_code(_prefix(k, d))


@dataclass(frozen=True)
class TradeoffPoint:
    """Rate plus separation-vector statistics of one code."""

    rate: Fraction
    d_min: int
    d_max: int
    d_avg: float


def _point(rate: Fraction, dists: Sequence[int]) -> TradeoffPoint:
    return TradeoffPoint(rate, min(dists), max(dists), sum(dists) / len(dists))


def _even_split(k: int, n: int) -> list[int]:
    """Slots per source when k sources share n slots evenly, extras first."""
    if n < k:
        raise ValueError(f"need at least one slot per source (k={k}, n={n})")
    return [n // k + (i < n % k) for i in range(k)]


def repetition_baseline(k: int, n: int) -> TradeoffPoint:
    """Each source repeats its own symbol; no cooperation."""
    return _point(Fraction(k, n), _even_split(k, n))


def repetition_code(k: int, n: int) -> NetworkCode:
    """Generator/schedule realization of the repetition baseline."""
    reps = _even_split(k, n)
    # the extra slots go round-robin after the systematic prefix
    v = tuple(range(1, k + 1)) + tuple(
        i + 1 for r in range(1, max(reps)) for i in range(k) if reps[i] > r)
    masks = [0] * k
    for j, src in enumerate(v):
        masks[src - 1] |= 1 << j
    return network_code(BitMatrix(tuple(masks), k, n), v)


def rate_advantage(k: int, d: int) -> float:
    """Rate of the smallest greedy design relative to repetition (rate 1/d)."""
    return float(Fraction(k * d, _prefix(k, d).cols))


@dataclass(frozen=True)
class TradeoffRow:
    """One greedy-vs-repetition comparison point."""

    k: int
    n: int
    d: int
    greedy: TradeoffPoint
    repetition: TradeoffPoint
    advantage: float


def _tradeoff_row(B: BitMatrix, d: int, n: int | None = None) -> TradeoffRow:
    """The row of the k-row prefix B at distance d: without n, against
    repetition at the same distance (k*d slots); at length n >= B.cols,
    against repetition over the same n slots."""
    k = B.rows
    rep = repetition_baseline(k, k * d if n is None else n)
    n = B.cols if n is None else n
    greedy = _point(Fraction(k, n), separation_vector(_systematize(B)))
    return TradeoffRow(k, n, d, greedy, rep, float(Fraction(k * d, B.cols)))


def tradeoff_table(k: int, n_range: Sequence[int] | None = None,
                   d_range: Sequence[int] | None = None) -> list[TradeoffRow]:
    """Greedy-vs-repetition trade-off rows over a length or distance range.

    By length, n takes the largest d at which the greedy code of length n
    has k rows: lexicodes are nested in n, so one pass per d, stopped at
    its k-th row, serves every n.
    """
    if (n_range is None) == (d_range is None):
        raise ValueError("provide exactly one of n_range or d_range")
    if not (n_range or d_range):
        raise ValueError("empty range")
    if d_range is not None:
        return [_tradeoff_row(_prefix(k, d), d) for d in d_range]
    # the d = 1 prefix is the identity, so it fits iff n >= k (and k >= 1)
    if _prefix(k, 1, min(n_range)) is None:
        raise ValueError(f"length {min(n_range)} is below k={k}")
    top = max(n_range)
    prefixes = [_prefix(k, d, top) for d in range(1, top + 1)]
    rows = []
    for n in n_range:
        # a prefix's length is the shortest at which its d has k rows
        d = max(d for d, B in enumerate(prefixes, 1) if B is not None and B.cols <= n)
        rows.append(_tradeoff_row(prefixes[d - 1], d, n))
    return rows
