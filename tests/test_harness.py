import ctypes
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import netcode
from netcode.channel import snc_threshold
from netcode.design import (
    TradeoffPoint,
    TradeoffRow,
    code_for_requirements,
    greedy_code,
    rate_advantage,
    repetition_baseline,
    repetition_code,
    separation_vector,
    tradeoff_table,
    _systematize,
)
from netcode.gf2 import BitMatrix
from netcode.harness import (
    BerRecord,
    ConfigError,
    SimConfig,
    compare_sweeps,
    estimate_diversity_slope,
    records_from_csv,
    records_to_csv,
    records_to_json_lines,
    run_sweep,
    _worker_count,
)


def _config(code, **over):
    base = dict(code=code, snr_grid_db=(0.0, 4.0), decoder="sp",
                min_errors_per_bit=10, max_trials=20_000, batch_size=2000,
                master_seed=7)
    base.update(over)
    return SimConfig(**base)


# ------------------------------------------------------------- configuration

def test_config_validation(code1):
    with pytest.raises(ConfigError):
        SimConfig(code=code1, snr_grid_db=())
    with pytest.raises(ConfigError):
        SimConfig(code=code1, snr_grid_db=(4.0, 2.0))
    with pytest.raises(ConfigError):
        _config(code1, min_errors_per_bit=0)
    with pytest.raises(ConfigError):
        _config(code1, max_trials=-1)
    with pytest.raises(ConfigError):
        _config(code1, batch_size=0)
    with pytest.raises(ConfigError):
        _config(code1, decoder="viterbi")
    with pytest.raises(ConfigError):
        _config(code1, mode="oracle")
    with pytest.raises(ConfigError):
        _config(code1, fading_mode="shadowing")


def test_config_map_size_guard():
    big = repetition_code(14, 28)
    with pytest.raises(ConfigError):
        _config(big, decoder="map")
    _config(big, decoder="sp")  # fine


def test_config_from_json_dict_inline_code(code1):
    obj = {"code": code1.to_json_dict(), "snr_grid_db": [0, 5, 10],
           "decoder": "map", "snc": True, "master_seed": 3}
    cfg = SimConfig.from_json_dict(obj)
    assert cfg.code.G == code1.G
    assert cfg.snr_grid_db == (0.0, 5.0, 10.0)
    assert cfg.decoder == "map" and cfg.snc and cfg.master_seed == 3


def test_config_from_json_dict_design_spec():
    cfg = SimConfig.from_json_dict({"design": {"k": 3, "d": 3},
                                    "snr_grid_db": [0, 6]})
    assert (cfg.code.k, cfg.code.n) == (3, 6)
    assert min(cfg.code.sep) >= 3


def test_config_from_json_dict_rejects_garbage():
    with pytest.raises(ConfigError):
        SimConfig.from_json_dict({"snr_grid_db": [0, 6]})
    with pytest.raises(ConfigError):
        SimConfig.from_json_dict({"design": {"k": 3}, "snr_grid_db": [0]})


def test_config_from_json_dict_is_strict(code1):
    base = {"code": code1.to_json_dict(), "snr_grid_db": [0, 6]}
    for over, field in [({"snc": 1}, "snc"), ({"decoder": 7}, "decoder"),
                        ({"seed": 1}, "seed"), ({"sp_iters": 4.0}, "sp_iters"),
                        ({"snr_grid_db": "0,6"}, "snr_grid_db"),
                        ({"snr_grid_db": [0, True]}, "snr_grid_db"),
                        ({"design": {"k": 3, "d": 3}}, "design")]:
        with pytest.raises(ConfigError, match=field):
            SimConfig.from_json_dict({**base, **over})
    with pytest.raises(ConfigError, match="sp_iters"):
        _config(code1, sp_iters=-3)
    with pytest.raises(ConfigError, match="master_seed"):
        _config(code1, master_seed=-1)
    with pytest.raises(ConfigError, match="snr_grid_db"):
        _config(code1, snr_grid_db=(0.0, math.nan))


def test_worker_count_from_environment(monkeypatch):
    monkeypatch.delenv("NETCODE_THREADS", raising=False)
    assert _worker_count() == 1
    most = os.cpu_count() or 1
    monkeypatch.setenv("NETCODE_THREADS", str(most))
    assert _worker_count() == most
    # a pool would fork every worker at once, so more than the CPU count
    # is an error, not a slow run
    for bad in ["two", "-4", "0", "1.5", "", str(most + 1), "50000"]:
        monkeypatch.setenv("NETCODE_THREADS", bad)
        with pytest.raises(ConfigError, match="NETCODE_THREADS"):
            _worker_count()


# ------------------------------------------------------------------ sweeping

def test_run_sweep_basic(code1):
    records = run_sweep(_config(code1))
    assert len(records) == 2
    for rec in records:
        assert rec.trials > 0
        assert (rec.errors >= 0).all()
        assert rec.ber.shape == (3,)
        assert np.isfinite(rec.stderr).all()
    # BER decreases with SNR for every source
    assert (records[1].ber < records[0].ber).all()


def test_run_sweep_stops_after_enough_errors(code1):
    records = run_sweep(_config(code1, min_errors_per_bit=5))
    for rec in records:
        assert (rec.errors >= 5).all()
        assert rec.flags == ""


def test_run_sweep_caps_trials(code1):
    cfg = _config(code1, snr_grid_db=(30.0,), min_errors_per_bit=10**6,
                  max_trials=4000)
    rec = run_sweep(cfg)[0]
    assert rec.trials == 4000
    assert rec.flags == "capped"


def test_run_sweep_zero_trials_yields_empty_records(code1):
    records = run_sweep(_config(code1, max_trials=0))
    for rec in records:
        assert rec.trials == 0
        assert rec.flags == "empty"
        assert np.isnan(rec.ber).all()
        assert np.isnan(rec.stderr).all()


@pytest.mark.parametrize("max_trials", [10**6, 10**30])
def test_run_sweep_memory_bounded_per_point(code1, monkeypatch, max_trials):
    """A point that meets its target after a few rounds plans no batches
    beyond them, so its memory does not grow with max_trials, even past
    2^63 batches."""
    monkeypatch.setenv("NETCODE_THREADS", "1")
    cfg = _config(code1, snr_grid_db=(-10.0,), batch_size=1,
                  max_trials=max_trials, min_errors_per_bit=1)
    tracemalloc.start()
    try:
        (rec,) = run_sweep(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.flags == "" and rec.trials < 100
    assert peak < 1 << 20


def test_run_sweep_deterministic_across_worker_counts(code1):
    cfg = _config(code1)
    old = os.environ.get("NETCODE_THREADS")
    try:
        os.environ["NETCODE_THREADS"] = "1"
        serial = run_sweep(cfg)
        os.environ["NETCODE_THREADS"] = "2"
        parallel = run_sweep(cfg)
    finally:
        if old is None:
            os.environ.pop("NETCODE_THREADS", None)
        else:
            os.environ["NETCODE_THREADS"] = old
    buf_a, buf_b = io.StringIO(), io.StringIO()
    records_to_csv(serial, buf_a)
    records_to_csv(parallel, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


_REPEATED_SWEEP = """
import json, resource, sys
from netcode.design import NetworkCode
from netcode.harness import SimConfig, run_sweep
cfg = SimConfig(code=NetworkCode.from_json_dict(json.loads(sys.argv[1])),
                snr_grid_db=(6.0, 12.0), decoder="map", min_errors_per_bit=10**9,
                max_trials=8 * 16384, batch_size=16384)
run_sweep(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
flags = [rec.flags for rec in run_sweep(cfg)]
print(json.dumps([resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, flags]))
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the C library has no mallopt")
def test_run_sweep_reuses_freed_memory_between_batches(net34):
    """A repeated MAP sweep of 16 batches of 16 384 rounds, in a fresh
    interpreter, faults in about one batch of heap, not every batch's
    arrays anew: glibc's default thresholds made that about 25 000 minor
    faults."""
    src = str(Path(netcode.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _REPEATED_SWEEP, json.dumps(net34.to_json_dict())],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": src, "NETCODE_THREADS": "1"})
    faults, flags = json.loads(result.stdout)
    assert flags == ["capped", "capped"]
    assert faults < 25_000 // 4


def test_run_sweep_reruns_reproduce(code1):
    cfg = _config(code1)
    a, b = run_sweep(cfg), run_sweep(cfg)
    for ra, rb in zip(a, b):
        assert ra.trials == rb.trials
        assert (ra.errors == rb.errors).all()


def test_identity_code_ber_matches_closed_form():
    """Uncoded BPSK over Rayleigh fading: BER = (1 - sqrt(g/(1+g))) / 2."""
    code = repetition_code(3, 3)
    cfg = SimConfig(code=code, snr_grid_db=(0.0, 6.0), decoder="sp",
                    min_errors_per_bit=300, max_trials=500_000,
                    batch_size=50_000, master_seed=11)
    for rec in run_sweep(cfg):
        expect = snc_threshold(10 ** (rec.snr_db / 10))
        for i in range(3):
            sigma = max(rec.stderr[i], 1e-6)
            assert rec.ber[i] == pytest.approx(expect, abs=4 * sigma)


def test_record_statistics():
    rec = BerRecord(6.0, 1000, np.array([10, 20, 0]))
    assert rec.ber.tolist() == [0.01, 0.02, 0.0]
    assert rec.stderr[0] == pytest.approx(math.sqrt(0.01 * 0.99 / 1000))
    assert rec.stderr[2] == 0.0


# -------------------------------------------------------------------- slopes

def _synthetic_records(c, order, grid_db, trials=10**9, k=1):
    records = []
    for snr_db in grid_db:
        ber = c * (10 ** (snr_db / 10)) ** (-order)
        errors = np.full(k, round(ber * trials), dtype=np.int64)
        records.append(BerRecord(snr_db, trials, errors))
    return records


def test_slope_recovers_synthetic_order():
    records = _synthetic_records(0.1, 2.0, [10.0, 20.0, 30.0])
    assert estimate_diversity_slope(records, 0) == pytest.approx(2.0, abs=1e-9)
    records = _synthetic_records(0.25, 1.0, [5.0, 10.0, 15.0, 20.0])
    assert estimate_diversity_slope(records, 0, window=3) == pytest.approx(
        1.0, abs=1e-6)


def test_slope_uses_highest_snr_window():
    shallow = _synthetic_records(0.2, 1.0, [0.0, 5.0])
    steep = _synthetic_records(0.2, 3.0, [10.0, 15.0, 20.0])
    # stitch: low-SNR points follow order 1, top window follows order 3
    records = shallow + steep
    assert estimate_diversity_slope(records, 0, window=3) == pytest.approx(
        3.0, abs=1e-6)


def test_slope_error_cases():
    records = _synthetic_records(0.1, 2.0, [10.0])
    with pytest.raises(ValueError):
        estimate_diversity_slope(records, 0)
    zero = [BerRecord(10.0, 1000, np.array([0])),
            BerRecord(20.0, 1000, np.array([0]))]
    with pytest.raises(ValueError):
        estimate_diversity_slope(zero, 0)
    four = _synthetic_records(0.1, 2.0, [0.0, 10.0, 20.0, 30.0])
    for window in (1, 0, -1):
        with pytest.raises(ValueError, match="window"):
            estimate_diversity_slope(four, 0, window)


def test_compare_sweeps_identical_is_zero():
    records = _synthetic_records(0.1, 2.0, [10.0, 20.0, 30.0], k=2)
    gaps = compare_sweeps(records, records, 1e-4)
    assert gaps == pytest.approx([0.0, 0.0], abs=1e-9)


def test_compare_sweeps_known_offset():
    a = _synthetic_records(0.1, 1.0, [10.0, 20.0, 30.0])
    b = _synthetic_records(0.01, 1.0, [10.0, 20.0, 30.0])
    # BER_a(snr) = BER_b(snr - 10 dB): a needs 10 dB more
    gaps = compare_sweeps(a, b, 1e-3)
    assert gaps[0] == pytest.approx(10.0, abs=1e-6)


def test_compare_sweeps_flat_segment_gives_its_first_snr():
    flat = [BerRecord(snr, 1000, np.array([errors]))
            for snr, errors in [(15.0, 10), (25.0, 10), (35.0, 1)]]
    ref = [BerRecord(0.0, 1000, np.array([100])), BerRecord(20.0, 1000, np.array([1]))]
    # the reference crosses BER 1e-2 at 10 dB, the flat sweep first at 15 dB
    assert compare_sweeps(flat, ref, 1e-2) == pytest.approx([5.0], abs=1e-12)


def test_compare_sweeps_unbracketed_target():
    records = _synthetic_records(0.1, 2.0, [10.0, 20.0])
    with pytest.raises(ValueError):
        compare_sweeps(records, records, 1e-12)


# ----------------------------------------------------------------- trade-off

def test_tradeoff_table_by_distance():
    rows = tradeoff_table(3, d_range=range(1, 5))
    assert [r.d for r in rows] == [1, 2, 3, 4]
    assert [r.n for r in rows] == [3, 4, 6, 7]
    by_d = {r.d: r for r in rows}
    assert by_d[3].greedy.d_min == 3
    assert by_d[3].repetition.d_min == 3  # repetition needs n = 9 for d = 3
    assert by_d[3].advantage == pytest.approx(1.5)
    assert by_d[4].advantage == pytest.approx(12 / 7)


def test_tradeoff_table_by_length():
    rows = tradeoff_table(3, n_range=range(3, 8))
    assert [r.n for r in rows] == [3, 4, 5, 6, 7]
    by_n = {r.n: r for r in rows}
    assert by_n[6].d == 3 and by_n[6].greedy.d_min == 3
    assert by_n[7].d == 4
    # repetition at the same length is strictly worse at n = 6
    assert by_n[6].repetition.d_min == 2
    # greedy separation never loses to repetition on the average
    for r in rows:
        assert r.greedy.d_avg >= r.repetition.d_avg - 1e-12


def _row_by_walk_down_distance(k, n):
    """The trade-off row at length n from a fresh lexicode of length n
    per distance, walking d down from n until one has k rows."""
    for d in range(n, 0, -1):
        B = greedy_code(n, d)
        if B.rows >= k:
            sep = separation_vector(_systematize(BitMatrix(B.row_masks[:k], k, n)))
            greedy = TradeoffPoint(Fraction(k, n), min(sep), max(sep), sum(sep) / k)
            return TradeoffRow(k, n, d, greedy, repetition_baseline(k, n),
                               rate_advantage(k, d))
    raise AssertionError(f"no distance gives {k} rows at length {n}")


def test_tradeoff_table_by_length_matches_walk_down_distance():
    for k in range(1, 5):
        lengths = range(k, 13)
        assert tradeoff_table(k, n_range=lengths) == [
            _row_by_walk_down_distance(k, n) for n in lengths]


def _row_from_designed_code(k, d):
    """The by-distance trade-off row from the scheduled greedy code."""
    code = code_for_requirements(k, d)
    sep = code.sep
    greedy = TradeoffPoint(code.rate, min(sep), max(sep), sum(sep) / k)
    return TradeoffRow(k, code.n, d, greedy, repetition_baseline(k, k * d),
                       float(code.rate * d))


def test_tradeoff_table_by_distance_matches_designed_codes():
    for k in range(1, 6):
        assert tradeoff_table(k, d_range=range(1, 9)) == [
            _row_from_designed_code(k, d) for d in range(1, 9)]


def test_rate_advantage_matches_designed_code_length():
    grid = [(k, d) for k in range(1, 6) for d in range(1, 9)]
    for k, d in grid + [(k, 3) for k in range(3, 26)]:
        assert rate_advantage(k, d) == float(
            Fraction(k * d, code_for_requirements(k, d).n)), (k, d)


def test_tradeoff_table_rejects_length_below_k():
    with pytest.raises(ValueError, match="length 2"):
        tradeoff_table(3, n_range=[4, 2, 5])


def test_tradeoff_table_argument_validation():
    with pytest.raises(ValueError):
        tradeoff_table(3)
    with pytest.raises(ValueError):
        tradeoff_table(3, n_range=range(3, 5), d_range=range(1, 3))
    with pytest.raises(ValueError):
        tradeoff_table(3, n_range=range(3, 3))
    for ranges in [{"n_range": range(3, 5)}, {"n_range": [0]}, {"d_range": range(1, 3)}]:
        with pytest.raises(ValueError, match="require k >= 1"):
            tradeoff_table(0, **ranges)


# -------------------------------------------------------------- serialization

def test_csv_roundtrip(code1):
    records = run_sweep(_config(code1))
    buf = io.StringIO()
    records_to_csv(records, buf)
    buf.seek(0)
    restored = records_from_csv(buf)
    assert len(restored) == len(records)
    for a, b in zip(records, restored):
        assert a.snr_db == b.snr_db
        assert a.trials == b.trials
        assert (a.errors == b.errors).all()
        assert a.flags == b.flags


def test_csv_header_and_layout(code1):
    records = [BerRecord(3.0, 100, np.array([1, 2, 3]))]
    buf = io.StringIO()
    records_to_csv(records, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "snr_db,source,trials,errors,ber,stderr,flags"
    assert len(lines) == 4  # one row per source
    assert lines[1].startswith("3,1,100,1,0.01,")


def test_json_lines_output():
    records = [BerRecord(3.0, 100, np.array([1, 2]), wall_time=0.25)]
    buf = io.StringIO()
    records_to_json_lines(records, buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(lines) == 2
    assert lines[0]["snr_db"] == 3.0
    assert lines[1]["source"] == 2
    assert lines[0]["ber"] == pytest.approx(0.01)
    assert [line["wall_time_s"] for line in lines] == [0.25, 0.25]
