import itertools
import json
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import netcode.design
from netcode.design import (
    SearchLimitError,
    code_for_requirements,
    default_schedule,
    greedy_code,
    network_code,
    rate_advantage,
    repetition_baseline,
    repetition_code,
    separation_vector,
    _systematize,
)
from netcode.gf2 import BitMatrix, is_systematic_prefix

from conftest import (
    CODE1_ROWS,
    CODE2_ROWS,
    CODE3_ROWS,
    NET34_ROWS,
    REP36_ROWS,
    separation_oracle,
    separation_span_reference,
)


def _identity(n):
    """The n x n identity over GF(2)."""
    return BitMatrix.from_rows(np.eye(n, dtype=int).tolist())


def _codeword(u: int, G: BitMatrix) -> int:
    """uG over GF(2): the XOR of the rows whose bit is set in u."""
    c = 0
    for i, m in enumerate(G.row_masks):
        if u >> i & 1:
            c ^= m
    return c


# ---------------------------------------------------------------- separation

def test_separation_vector_known_networks():
    assert separation_vector(BitMatrix.from_rows(NET34_ROWS)) == (2, 2, 1)
    assert separation_vector(BitMatrix.from_rows(REP36_ROWS)) == (2, 2, 2)
    assert separation_vector(BitMatrix.from_rows(CODE1_ROWS)) == (3, 3, 3)
    assert separation_vector(BitMatrix.from_rows(CODE2_ROWS)) == (3, 2, 2)
    assert separation_vector(BitMatrix.from_rows(CODE3_ROWS)) == (4, 4, 4)


def test_separation_vector_identity():
    assert separation_vector(_identity(5)) == (1, 1, 1, 1, 1)


def test_separation_vector_matches_exhaustive_oracle():
    rng = np.random.default_rng(10)
    done = 0
    while done < 200:
        k = int(rng.integers(1, 7))
        n = int(rng.integers(k, 14))
        rows = rng.integers(0, 2, (k, n)).tolist()
        if any(sum(r) == 0 for r in rows):
            continue
        assert list(separation_vector(BitMatrix.from_rows(rows))) == \
            separation_oracle(rows)
        done += 1


def test_separation_vector_in_gray_code_chunks_matches_oracle(monkeypatch):
    """With a two-row table, every code of k > 2 runs through chunks of
    the high rows, in order of their unit-column bound."""
    monkeypatch.setattr(netcode.design, "_TABLE_ROWS", 2)
    rng = np.random.default_rng(12)
    done = 0
    while done < 100:
        k = int(rng.integers(1, 9))
        n = int(rng.integers(k, 16))
        rows = rng.integers(0, 2, (k, n)).tolist()
        if any(sum(r) == 0 for r in rows):
            continue
        assert list(separation_vector(BitMatrix.from_rows(rows))) == \
            separation_oracle(rows)
        done += 1


@pytest.mark.parametrize("rows", [8, 12, 16, 18])
def test_separation_vector_does_not_depend_on_the_table_split(monkeypatch, rows):
    """An 18-source code gives one vector whether its table spans 8, 12
    or 16 rows, or all 18 with no chunks."""
    G = code_for_requirements(18, 3).G
    whole = separation_vector(G)
    monkeypatch.setattr(netcode.design, "_TABLE_ROWS", rows)
    assert separation_vector(G) == whole


def test_separation_vector_memory_is_bounded():
    """The codewords of a k = 22 code would take 32 MB as one table,
    those of k = 25, the largest benchmarked design, 256 MB, and those
    of k = 28, the `--k` cap, 2 GB."""
    for k in (22, 25, 28):
        G = code_for_requirements(k, 3).G
        tracemalloc.start()
        try:
            separation_vector(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, k


def _code_with_unit_columns(rng, k, units):
    """Rows of a random k-source code in which exactly the sources in
    `units` have unit columns, some of them twice, columns shuffled."""
    n = int(rng.integers(k + 1, 14))
    # no column of the base part has exactly one one
    base = rng.integers(0, 2, (k, n))
    base[:, base.sum(axis=0) == 1] = 0
    cols = [base] + [np.eye(k, dtype=int)[:, [i] * int(rng.integers(1, 3))]
                     for i in units]
    rows = np.concatenate(cols, axis=1)
    return rows[:, rng.permutation(rows.shape[1])].tolist()


@pytest.mark.parametrize("table_rows", [2, 3, 16])
@pytest.mark.parametrize("kind", ["none", "some", "all"])
def test_separation_vector_with_unit_columns_matches_oracle(monkeypatch, kind,
                                                            table_rows):
    """The bound counts the sources whose unit vector is a column of G.
    Codes where none, some (as in NET34) or all sources have one, one
    or two copies, at k = 1..9, with tables of 2, 3 and 16 rows."""
    monkeypatch.setattr(netcode.design, "_TABLE_ROWS", table_rows)
    rng = np.random.default_rng([table_rows, len(kind)])
    for k in range(1 if kind == "all" else 2, 10):
        done = 0
        while done < 4:
            if kind == "some":
                srcs = sorted(rng.permutation(k)[:int(rng.integers(1, k))])
            else:
                srcs = range(k) if kind == "all" else []
            rows = _code_with_unit_columns(rng, k, srcs)
            if any(sum(r) == 0 for r in rows):
                continue
            assert list(separation_vector(BitMatrix.from_rows(rows))) == \
                separation_oracle(rows), rows
            done += 1


def test_separation_vector_folds_every_chunk_of_a_batch(monkeypatch):
    """With a four-row table, the chunks of the two high sources are
    scanned in one batch against the table's first five codewords.
    Sources 0 and 1 reach weight 2 only together with source 4 and 5
    respectively, below every row's weight of 3."""
    monkeypatch.setattr(netcode.design, "_TABLE_ROWS", 4)
    rows = [[int(j in ones) for j in range(12)] for ones in
            ({0, 6, 7}, {1, 8, 9}, {2, 10, 11}, {3, 6, 8}, {4, 6, 7}, {5, 8, 9})]
    assert separation_oracle(rows) == [2, 2, 3, 3, 2, 2]
    assert list(separation_vector(BitMatrix.from_rows(rows))) == [2, 2, 3, 3, 2, 2]


def _dense_code_without_unit_columns(k, n, seed):
    rng = np.random.default_rng(seed)
    while True:
        rows = rng.integers(0, 2, (k, n))
        if 1 not in rows.sum(axis=0) and rows.sum(axis=1).all():
            return BitMatrix.from_rows(rows.tolist())


@pytest.mark.parametrize("k, d", [(k, d) for d in (3, 5, 7) for k in range(17, 21)]
                         + [(18, None)])
def test_separation_vector_skipping_chunks_matches_span(monkeypatch, k, d):
    """The d = 3, 5 and 7 designs of 17 to 20 sources have chunks of the
    high rows, each scanning only part of the table; with an 8-row table
    whole chunks are skipped.  The dense k = 18 code (d None) has no
    unit column and visits them all."""
    G = _dense_code_without_unit_columns(k, 30, 4) if d is None else \
        code_for_requirements(k, d).G
    expect = separation_span_reference(G)
    for table_rows in (16, 8):
        monkeypatch.setattr(netcode.design, "_TABLE_ROWS", table_rows)
        assert list(separation_vector(G)) == expect, table_rows


def test_separation_vector_covers_64_slots():
    assert separation_vector(repetition_code(3, 64).G) == (22, 21, 21)


def test_separation_vector_rejects_more_than_64_slots():
    with pytest.raises(ValueError, match="n = 65.*64 slots"):
        separation_vector(repetition_code(3, 65).G)


def test_separation_vector_rejects_zero_row():
    with pytest.raises(ValueError):
        separation_vector(BitMatrix.from_rows([[1, 0], [0, 0]]))


def test_separation_min_is_code_distance():
    """min separation equals the classical minimum distance when G has
    full rank (checked by brute force over nonzero codewords)."""
    rng = np.random.default_rng(11)
    done = 0
    while done < 50:
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k + 1, 12))
        rows = rng.integers(0, 2, (k, n)).tolist()
        G = BitMatrix.from_rows(rows)
        if any(m == 0 for m in G.row_masks):
            continue
        weights = [_codeword(u, G).bit_count() for u in range(1, 1 << k)]
        if 0 in weights:  # rank-deficient; min distance undefined as coded
            continue
        assert min(separation_vector(G)) == min(weights)
        done += 1


# -------------------------------------------------------------- greedy codes

def test_greedy_code_distance_one_is_identity():
    for n in range(1, 8):
        assert greedy_code(n, 1) == _identity(n)


def test_greedy_code_known_dimensions():
    assert greedy_code(6, 3).rows == 3
    assert greedy_code(7, 3).rows == 4
    assert greedy_code(7, 4).rows == 3
    assert greedy_code(5, 2).rows == 4
    assert greedy_code(7, 7).rows == 1


def test_greedy_code_known_separations():
    assert separation_vector(greedy_code(6, 3)) == (3, 3, 3)
    assert separation_vector(greedy_code(7, 4)) == (4, 4, 4)


def test_greedy_code_meets_distance_and_is_maximal():
    """Every pairwise distance >= d, and no further vector in integer
    order could have been admitted (greedy maximality)."""
    for n, d in [(5, 2), (6, 3), (7, 3), (8, 4), (9, 2)]:
        G = greedy_code(n, d)
        k = G.rows
        codewords = {_codeword(u, G) for u in range(1 << k)}
        assert all(
            bin(a ^ b).count("1") >= d
            for a, b in itertools.combinations(codewords, 2)
        )
        for cand in range(1 << n):
            if cand in codewords:
                continue
            assert any(bin(cand ^ c).count("1") < d for c in codewords), \
                f"vector {cand:0{n}b} was skippable at (n={n}, d={d})"


def _literal_lexicode(n, d):
    """Scan every length-n vector in integer order and admit it when it is
    at distance >= d from every vector admitted so far."""
    ball = [v for v in range(1 << n) if bin(v).count("1") < d]
    blocked = bytearray(1 << n)
    admitted = []
    for v in range(1 << n):
        if not blocked[v]:
            admitted.append(v)
            for e in ball:
                blocked[v ^ e] = 1
    return admitted


def test_greedy_code_equals_literal_lexicode():
    """The rows are the first admitted vector at each top bit, and their
    span is exactly the admitted set."""
    for n in range(1, 13):
        for d in range(1, n + 1):
            admitted = _literal_lexicode(n, d)
            first = {}
            for v in admitted[1:]:
                first.setdefault(v.bit_length(), v)
            rows = greedy_code(n, d).row_masks
            assert list(rows) == sorted(first.values()), (n, d)
            span = {0}
            for r in rows:
                span |= {x ^ r for x in span}
            assert span == set(admitted), (n, d)


def test_greedy_code_rejects_bad_parameters():
    with pytest.raises(ValueError):
        greedy_code(3, 4)
    with pytest.raises(ValueError):
        greedy_code(3, 0)


def test_greedy_code_rows_are_nested_in_length():
    """The row admitted at bit p depends only on the bits below p, so
    each lexicode's rows start the next length's."""
    for d in range(1, 6):
        for n in range(d, 14):
            short = greedy_code(n, d).row_masks
            assert greedy_code(n + 1, d).row_masks[:len(short)] == short


def test_up_front_table_check_changes_no_outcome(monkeypatch):
    """The pass rejects up front only what its coset table would outgrow
    anyway: with the floor disabled, every outcome (rows or
    SearchLimitError) is the same, at limits small enough that both
    kinds occur."""
    def outcomes():
        found = []
        for n in range(3, 19):
            for d in range(3, n + 1):
                try:
                    found.append(greedy_code(n, d).row_masks)
                except SearchLimitError:
                    found.append(None)
        for k in range(1, 7):
            for d in range(3, 10):
                try:
                    found.append(code_for_requirements(k, d).G)
                except SearchLimitError:
                    found.append(None)
        return found

    for limit in (30, 300):
        monkeypatch.setattr(netcode.design, "MAX_COSET_TABLE", limit)
        early = outcomes()
        with monkeypatch.context() as patch:
            patch.setattr(netcode.design, "_weight_ball", lambda *args: 0)
            assert outcomes() == early
        assert None in early and any(x is not None for x in early)


def test_greedy_code_larger_instance_is_fast():
    G = greedy_code(30, 3)
    assert G.rows == 25
    assert _systematize(G) is not None


# ------------------------------------------------------------- systematizing

def test_systematize_known_code():
    G = _systematize(greedy_code(6, 3))
    assert is_systematic_prefix(G)
    assert separation_vector(G) == (3, 3, 3)


def test_systematize_random_full_rank():
    rng = np.random.default_rng(12)
    done = 0
    while done < 100:
        k = int(rng.integers(1, 6))
        n = int(rng.integers(k, 12))
        rows = rng.integers(0, 2, (k, n))
        # GF(2) rank via elimination (real rank is not a valid proxy)
        work = list(BitMatrix.from_rows(rows.tolist()).row_masks)
        rank = 0
        for col in range(n):
            piv = next((i for i in range(rank, k) if work[i] >> col & 1), None)
            if piv is None:
                continue
            work[rank], work[piv] = work[piv], work[rank]
            work = [w ^ work[rank] if i != rank and w >> col & 1 else w
                    for i, w in enumerate(work)]
            rank += 1
        if rank < k:
            continue
        S = _systematize(BitMatrix.from_rows(rows.tolist()))
        assert is_systematic_prefix(S)
        # row space cardinality is preserved (same code up to column order)
        done += 1


def test_systematize_rejects_dependent_rows():
    with pytest.raises(ValueError):
        _systematize(BitMatrix.from_rows([[1, 0, 1], [1, 0, 1]]))


# ----------------------------------------------------------------- schedules

def test_default_schedule_examples():
    assert default_schedule(BitMatrix.from_rows(CODE1_ROWS)) == (1, 2, 3, 1, 2, 3)
    assert default_schedule(BitMatrix.from_rows(CODE3_ROWS)) == (1, 2, 3, 1, 2, 3, 1)
    assert default_schedule(_identity(4)) == (1, 2, 3, 4)


def test_default_schedule_requires_systematic_prefix():
    with pytest.raises(ValueError):
        default_schedule(BitMatrix.from_rows(NET34_ROWS))


def test_default_schedule_is_always_valid():
    rng = np.random.default_rng(13)
    for n, d in [(6, 3), (7, 3), (7, 4), (9, 3), (10, 4)]:
        B = greedy_code(n, d)
        G = _systematize(B)
        code = network_code(G, default_schedule(G))
        assert not code.schedule_violations, code.schedule_violations


def test_validate_schedule_accepts_samples(net34, rep36, code1, code2, code3):
    for code in (net34, rep36, code1, code2, code3):
        assert not code.schedule_violations, code.schedule_violations


def test_validate_schedule_rejects_zero_coefficient(net34):
    bad = network_code(net34.G, [2, 2, 3, 2])  # slot 0 owner has G[1,0] = 0
    violations = bad.schedule_violations
    assert violations
    assert any("slot 0" in v for v in violations)


def test_validate_schedule_rejects_causality_violation():
    # combined slot before source 3 has ever transmitted
    G = BitMatrix.from_rows([[1, 1, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1]])
    bad = network_code(G, [1, 2, 2, 3])
    violations = bad.schedule_violations
    assert violations
    assert any("causality" in v for v in violations)


def test_validate_schedule_rejects_out_of_range_transmitter(code1):
    violations = network_code(code1.G, [1, 2, 3, 1, 2, 4]).schedule_violations
    assert violations
    assert any("outside" in v for v in violations)


def test_schedule_violations_cached_and_pickled(net34):
    """The check runs once per code object, and a pickled code (as sent
    to pool workers) carries the cached result."""
    bad = network_code(net34.G, [2, 2, 3, 2])
    assert bad.schedule_violations is bad.schedule_violations
    assert pickle.loads(pickle.dumps(bad)).__dict__["schedule_violations"] == (
        bad.schedule_violations)


# --------------------------------------------------------------- NetworkCode

def test_network_code_properties(code1):
    assert code1.k == 3
    assert code1.n == 6
    assert code1.rate == Fraction(1, 2)
    assert code1.sep == (3, 3, 3)


def test_network_code_json_roundtrip(code2):
    from netcode.design import NetworkCode

    restored = NetworkCode.from_json_dict(json.loads(json.dumps(code2.to_json_dict())))
    assert restored.G == code2.G
    assert restored.v == code2.v
    assert restored.sep == (3, 2, 2)


CACHED = ("sep", "check_sources", "relay_pairs", "slot_pairs")


def test_network_code_sep_is_cached_and_pickles(code2):
    code = network_code(code2.G, code2.v)
    for name in CACHED:
        assert getattr(code, name) is getattr(code, name)
    restored = pickle.loads(pickle.dumps(code))
    assert restored == code
    for name in CACHED:
        assert name in vars(restored)  # carried over, not recomputed
        assert getattr(restored, name) == getattr(code, name)
    # the caches are not fields: equality and hashing see only G and v
    fresh = network_code(code2.G, code2.v)
    assert fresh == code and hash(fresh) == hash(code)
    assert all(name not in repr(code) for name in CACHED)


def test_network_code_schedule_length_checked(code1):
    with pytest.raises(ValueError):
        network_code(code1.G, [1, 2, 3])


# ----------------------------------------------------- requirement-driven fit

def test_code_for_requirements_small():
    code = code_for_requirements(3, 3)
    assert (code.k, code.n) == (3, 6)
    assert min(code.sep) >= 3
    assert not code.schedule_violations, code.schedule_violations

    code = code_for_requirements(3, 4)
    assert (code.k, code.n) == (3, 7)
    assert min(code.sep) >= 4


def test_code_for_requirements_distance_one():
    code = code_for_requirements(4, 1)
    assert (code.k, code.n) == (4, 4)
    assert code.G == _identity(4)


def test_code_for_requirements_meets_distance_generally():
    for k, d in [(2, 2), (4, 3), (5, 3), (4, 4), (6, 2)]:
        code = code_for_requirements(k, d)
        assert code.k == k
        assert min(code.sep) >= d
        assert k <= code.n <= k * d
        assert not code.schedule_violations, code.schedule_violations


def _code_by_search_over_lengths(k, d):
    """The search that built a fresh lexicode at every length from
    max(k, d) up, re-checking the distance when rows were dropped."""
    for n in range(max(k, d), k * d + 1):
        B = greedy_code(n, d)
        if B.rows < k:
            continue
        G = _systematize(BitMatrix(B.row_masks[:k], k, n))
        code = network_code(G, default_schedule(G))
        if B.rows > k and min(code.sep) < d:
            continue
        return code
    raise AssertionError(f"no length up to {k * d} has {k} rows")


def test_code_for_requirements_matches_search_over_lengths():
    for d in range(1, 5):
        for k in range(1, 13):
            code = code_for_requirements(k, d)
            assert code == _code_by_search_over_lengths(k, d), (k, d)
            assert min(code.sep) >= d


def test_code_for_requirements_rejects_bad_args():
    with pytest.raises(ValueError):
        code_for_requirements(0, 3)
    with pytest.raises(ValueError):
        code_for_requirements(3, 0)


# ------------------------------------------------------ baselines, trade-off

def test_repetition_baseline_even_split():
    pt = repetition_baseline(3, 6)
    assert (pt.d_min, pt.d_max) == (2, 2)
    assert pt.rate == Fraction(1, 2)


def test_repetition_baseline_uneven_split():
    pt = repetition_baseline(3, 7)
    assert (pt.d_min, pt.d_max) == (2, 3)
    assert pt.d_avg == pytest.approx(7 / 3)


def test_repetition_baseline_rejects_short_block():
    with pytest.raises(ValueError):
        repetition_baseline(4, 3)


def test_repetition_code_realizes_baseline():
    for k, n in [(3, 6), (3, 7), (4, 9), (2, 2)]:
        code = repetition_code(k, n)
        pt = repetition_baseline(k, n)
        sep = code.sep
        assert (min(sep), max(sep)) == (pt.d_min, pt.d_max)
        assert not code.schedule_violations, code.schedule_violations
        # strictly one source per column
        arr = code.G.to_array()
        assert (arr.sum(axis=0) == 1).all()


def test_rate_advantage_values():
    assert rate_advantage(3, 3) == pytest.approx(3 * 3 / 6)
    assert rate_advantage(3, 4) == pytest.approx(3 * 4 / 7)
    assert rate_advantage(4, 3) == pytest.approx(4 * 3 / 7)
    assert rate_advantage(1, 1) == pytest.approx(1.0)


def test_rate_advantage_never_below_one():
    for k, d in [(2, 2), (3, 2), (3, 3), (4, 3), (5, 3), (6, 3)]:
        assert rate_advantage(k, d) >= 1.0 - 1e-12
