"""Monte Carlo experiment runner: SNR sweeps with a per-source stopping
rule, diversity-slope estimation and sweep comparison.

Reproducibility: each batch of rounds is seeded from (master_seed,
snr_index, batch_index), and the stopping batch is determined by
cumulative counts in batch-index order.  Results are therefore identical
for any worker count (NETCODE_THREADS changes speed only).
"""
from __future__ import annotations

import csv
import ctypes
import dataclasses
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .channel import FADING_MODES, FadingModel, SncPolicy, simulate_rounds
from .decoders import DECODE_MODES, DECODERS, MAP_SIZE_LIMIT, decode_with_mode_batch
from .design import NetworkCode, SearchLimitError, code_for_requirements

__all__ = [
    "ConfigError",
    "SimConfig",
    "BerRecord",
    "run_sweep",
    "estimate_diversity_slope",
    "compare_sweeps",
    "records_to_csv",
    "records_from_csv",
    "records_to_json_lines",
]

CSV_COLUMNS = ("snr_db", "source", "trials", "errors", "ber", "stderr", "flags")

# Widest |snr_db| over which the channel and decoder arithmetic stay
# finite: the mean SNR stays a normal float64, and the channel LLRs, about
# 4e300 at the top, overflow only from about 3066 dB (README, snr_grid_db).
SNR_DB_LIMIT = 3000.0


class ConfigError(ValueError):
    """Invalid simulation configuration."""


@dataclass(frozen=True)
class SimConfig:
    code: NetworkCode
    snr_grid_db: tuple[float, ...]
    fading_mode: str = "block_iid"
    snc: bool = False
    decoder: str = "sp"
    mode: str = "optimal"
    sp_iters: int = 4
    min_errors_per_bit: int = 100
    max_trials: int = 10**8
    master_seed: int = 0
    batch_size: int = 1 << 16

    def __post_init__(self):
        grid = self.snr_grid_db
        if not grid:
            raise ConfigError("SNR grid is empty")
        # an increasing grid lies within the limit iff its ends do; a NaN
        # fails every comparison, and none needs float(), which overflows
        # on a huge JSON integer
        if not (-SNR_DB_LIMIT <= grid[0] and grid[-1] <= SNR_DB_LIMIT):
            raise ConfigError(f"snr_grid_db entries must lie in "
                              f"-{SNR_DB_LIMIT:g}..{SNR_DB_LIMIT:g} dB")
        if not all(a < b for a, b in zip(grid, grid[1:])):
            raise ConfigError("snr_grid_db must be strictly increasing, with no NaN")
        object.__setattr__(self, "snr_grid_db", tuple(map(float, grid)))
        if self.min_errors_per_bit < 1:
            raise ConfigError("min_errors_per_bit must be >= 1")
        if self.max_trials < 0:
            raise ConfigError("max_trials must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.sp_iters < 1:
            raise ConfigError("sp_iters must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        if self.decoder not in DECODERS:
            raise ConfigError(f"unknown decoder {self.decoder!r}")
        if self.mode not in DECODE_MODES:
            raise ConfigError(f"unknown decode mode {self.mode!r}")
        if self.fading_mode not in FADING_MODES:
            raise ConfigError(f"unknown fading mode {self.fading_mode!r}")
        if self.decoder == "map" and self.code.k + self.code.n > MAP_SIZE_LIMIT:
            raise ConfigError(
                f"MAP decoder limited to k + n <= {MAP_SIZE_LIMIT}")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SimConfig":
        """Parse a JSON config; unknown keys and wrong types raise
        ConfigError naming the field."""
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        if not obj.keys() <= _CONFIG_KEYS:
            unknown = sorted(obj.keys() - _CONFIG_KEYS)
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        if "code" in obj and "design" in obj:
            raise ConfigError("config has both 'code' and 'design'; give one")
        try:
            if "code" in obj:
                try:
                    code = NetworkCode.from_json_dict(obj["code"])
                except ValueError as exc:
                    raise ConfigError(f"code: {exc}") from exc
            elif "design" in obj:
                req = obj["design"]
                if type(req) is not dict:
                    raise ConfigError(f"design must be a JSON object {{k, d}}, got {req!r}")
                if not req.keys() <= _DESIGN_KEYS:
                    unknown = sorted(f"design.{key}" for key in req.keys() - _DESIGN_KEYS)
                    raise ConfigError(f"unknown design key(s): {', '.join(unknown)}")
                k, d = _design_int(req, "k"), _design_int(req, "d")
                try:
                    code = code_for_requirements(k, d)
                except SearchLimitError as exc:
                    raise ConfigError(f"design.d: {exc}") from exc
            else:
                raise ConfigError("config needs a 'code' object or a 'design' {k, d}")
            grid = obj["snr_grid_db"]
            if type(grid) is not list or not {type(x) for x in grid} <= {int, float}:
                raise ConfigError("snr_grid_db must be a list of numbers")
            kwargs = {name: obj[name] for name in _CONFIG_DEFAULTS if name in obj}
            for name, value in kwargs.items():
                want = type(_CONFIG_DEFAULTS[name])
                if type(value) is not want:
                    raise ConfigError(f"{name} must be {want.__name__}, got {value!r}")
            return cls(code=code, snr_grid_db=tuple(grid), **kwargs)
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc


# Optional fields with their defaults, whose types a JSON value must match
# exactly (so a bool is not an int); the keys a config may carry.
_CONFIG_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SimConfig)
                    if f.default is not dataclasses.MISSING}
_CONFIG_KEYS = {f.name for f in dataclasses.fields(SimConfig)} | {"design"}
_DESIGN_KEYS = {"k", "d"}


def _design_int(req: dict, key: str) -> int:
    value = req.get(key)
    if type(value) is not int or value < 1:
        raise ConfigError(f"design.{key} must be an integer >= 1, got {value!r}")
    return value


@dataclass
class BerRecord:
    """Per-source bit error statistics at one SNR point."""

    snr_db: float
    trials: int
    errors: np.ndarray            # (k,) per-source error counts
    flags: str = ""
    wall_time: float = 0.0

    @property
    def ber(self) -> np.ndarray:
        if self.trials == 0:
            return np.full(len(self.errors), np.nan)
        return self.errors / self.trials

    @property
    def stderr(self) -> np.ndarray:
        if self.trials == 0:
            return np.full(len(self.errors), np.nan)
        ber = self.ber
        return np.sqrt(ber * (1.0 - ber) / self.trials)


def _batch_counts(config: SimConfig, snr_index: int,
                  batch_index: int) -> tuple[int, np.ndarray]:
    """Simulate and decode one seeded batch, whose size is fixed by its
    index; returns (trials, error counts)."""
    size = min(config.batch_size, config.max_trials - batch_index * config.batch_size)
    snr_db = config.snr_grid_db[snr_index]
    fading = FadingModel(config.fading_mode, 10.0 ** (snr_db / 10.0))
    snc = SncPolicy(config.snc)
    rng = np.random.default_rng([config.master_seed, snr_index, batch_index])
    batch = simulate_rounds(config.code, fading, snc, rng, size,
                            genie=(config.mode == "genie"))
    decisions = decode_with_mode_batch(batch, config.code, 1.0, config.mode,
                                       config.decoder, config.sp_iters)
    return size, (decisions != batch.u).sum(axis=0).astype(np.int64)


def _worker_count() -> int:
    """Worker processes from NETCODE_THREADS, 1 to the CPU count: a pool
    forks them all at its first batch, and results do not depend on it."""
    text = os.environ.get("NETCODE_THREADS", "1")
    most = os.cpu_count() or 1
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if not 1 <= workers <= most:
        raise ConfigError(
            f"NETCODE_THREADS must be an integer in 1..{most} (the CPU count), got {text!r}")
    return workers


def _point_counts(config: SimConfig, snr_index: int, mapper,
                  workers: int):
    """(trials, error counts) of each batch of one SNR point, in batch-index
    order.  Batches run in waves of `workers` through `mapper`, and every
    result of a wave is read, so a failed batch is never dropped.  The
    stream is lazy: a point that stops early plans no later wave.
    """
    batches = -(-config.max_trials // config.batch_size)
    for first in range(0, batches, workers):
        yield from list(mapper(_batch_counts, repeat(config), repeat(snr_index),
                               range(first, min(first + workers, batches))))


def _libc(name: str, *argtypes):
    """The C library's function `name`, typed to return an int, or None
    where the library lacks it."""
    try:
        func = getattr(ctypes.CDLL(None), name)
    except (OSError, AttributeError):
        return None
    func.argtypes, func.restype = argtypes, ctypes.c_int
    return func


def _hold_freed_memory() -> None:
    """Set glibc's malloc to keep freed memory in the heap for the rest of
    the process, so each batch reuses the pages of the last one instead of
    faulting fresh ones in.  Both thresholds are set: either alone turns
    off glibc's dynamic mmap threshold, and the faults grow."""
    mallopt = _libc("mallopt", ctypes.c_int, ctypes.c_int)
    if mallopt is not None:
        mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD, at glibc's ceiling
        mallopt(-1, 2**31 - 1)   # M_TRIM_THRESHOLD


def run_sweep(config: SimConfig) -> list[BerRecord]:
    """Run the Monte Carlo sweep defined by `config`.

    Per SNR point, rounds run in fixed-size batches until every source
    bit has accumulated min_errors_per_bit errors or max_trials rounds
    have been spent (such points are flagged "capped"; with max_trials
    = 0, "empty").

    Memory: a sweep sets glibc's malloc thresholds in this process and in
    its pool workers, so a batch's arrays come from the heap and freed
    memory stays there for the next batch.  Left to glibc, every batch
    handed its arrays back to the kernel and faulted them in again: a
    NET34 MAP sweep of 16 batches of 16 384 rounds took about 25 000
    minor faults, 1 600 a batch.  The thresholds stay set for the rest
    of the process; an array above 32 MiB still comes from `mmap`.  The
    heap is trimmed when the sweep returns.  Where the C library has no
    `mallopt`, nothing changes.
    """
    # checked (and the decoder's plan built) here, before any batch, so the
    # pickled config carries the cached results to pool workers
    if config.code.schedule_violations:
        raise ConfigError("code.v: invalid schedule: "
                          + "; ".join(config.code.schedule_violations))
    if config.decoder == "sp":
        config.code.plan
    workers = _worker_count()
    records: list[BerRecord] = []
    _hold_freed_memory()
    try:
        with (ProcessPoolExecutor(workers, initializer=_hold_freed_memory)
              if workers > 1 else nullcontext()) as pool:
            mapper = map if pool is None else pool.map
            for snr_index, snr_db in enumerate(config.snr_grid_db):
                t0 = time.perf_counter()
                trials = 0
                errors = np.zeros(config.code.k, dtype=np.int64)
                flags = ""
                for n_done, errs in _point_counts(config, snr_index, mapper, workers):
                    trials += n_done
                    errors += errs
                    if np.all(errors >= config.min_errors_per_bit):
                        break
                else:
                    flags = "capped" if trials else "empty"
                records.append(BerRecord(snr_db, trials, errors, flags,
                                         time.perf_counter() - t0))
    finally:
        trim = _libc("malloc_trim", ctypes.c_size_t)
        if trim is not None:
            trim(0)
    return records


def estimate_diversity_slope(records: Sequence[BerRecord], source: int,
                             window: int = 3) -> float:
    """Least-squares slope of -log10(BER) against SNR_dB/10 over the
    highest-SNR points; the empirical diversity order."""
    if window < 2:
        raise ValueError(f"slope window must be >= 2, got {window}")
    usable = [r for r in records if r.trials > 0]
    pts = usable[-window:]
    if len(pts) < 2:
        raise ValueError("need at least two records in the slope window")
    bers = np.array([r.ber[source] for r in pts])
    if np.any(bers <= 0) or np.any(np.isnan(bers)):
        raise ValueError("zero-error or empty record in the slope window")
    x = np.array([r.snr_db / 10.0 for r in pts])
    y = -np.log10(bers)
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def _snr_at_ber(records: Sequence[BerRecord], source: int, target: float) -> float:
    pts = [(r.snr_db, r.ber[source]) for r in records
           if r.trials > 0 and r.ber[source] > 0]
    for (s0, b0), (s1, b1) in zip(pts, pts[1:]):
        lo, hi = min(b0, b1), max(b0, b1)
        if lo <= target <= hi:
            if b0 == b1:
                return s0
            f = (np.log10(target) - np.log10(b0)) / (np.log10(b1) - np.log10(b0))
            return s0 + f * (s1 - s0)
    raise ValueError(f"target BER {target} not bracketed for source {source}")


def compare_sweeps(a: Sequence[BerRecord], b: Sequence[BerRecord],
                   target_ber: float) -> list[float]:
    """Per-source SNR gap (dB) of sweep a relative to sweep b at the
    target BER; positive means a needs more SNR."""
    k = len(a[0].errors)
    return [_snr_at_ber(a, i, target_ber) - _snr_at_ber(b, i, target_ber)
            for i in range(k)]


def _rows(records: Sequence[BerRecord]):
    """One dict per (record, source), keyed by CSV_COLUMNS and then
    `wall_time_s`, the point's measured wall time."""
    for rec in records:
        ber, stderr = rec.ber, rec.stderr
        for i, errors in enumerate(rec.errors):
            yield {"snr_db": rec.snr_db, "source": i + 1, "trials": rec.trials,
                   "errors": int(errors), "ber": float(ber[i]),
                   "stderr": float(stderr[i]), "flags": rec.flags,
                   "wall_time_s": rec.wall_time}


def records_to_csv(records: Sequence[BerRecord], fp) -> None:
    """One row per (snr_db, source); floats at full round-trip precision."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in _rows(records):
        writer.writerow(format(float(row[c]), ".17g") if c in ("snr_db", "ber", "stderr")
                        else row[c] for c in CSV_COLUMNS)


def records_from_csv(fp) -> list[BerRecord]:
    """Records from a sweep CSV.  Each point must list sources 1..k once
    each, k being the first point's highest source, and its rows must
    agree on `trials` and `flags`; otherwise ValueError names the point."""
    rows: dict[float, list[dict]] = {}  # in first-seen SNR order
    for row in csv.DictReader(fp):
        rows.setdefault(float(row["snr_db"]), []).append(row)
    records, k = [], None
    for snr, group in rows.items():
        group = sorted(group, key=lambda r: int(r["source"]))
        sources = [int(r["source"]) for r in group]
        k = k or sources[-1]
        if sources != list(range(1, k + 1)):
            raise ValueError(f"snr_db {snr:.17g}: sources {sources}, "
                             f"expected 1..{k} once each")
        if len({(int(r["trials"]), r["flags"]) for r in group}) > 1:
            raise ValueError(f"snr_db {snr:.17g}: rows disagree on trials or flags")
        errors = np.array([int(r["errors"]) for r in group], dtype=np.int64)
        records.append(BerRecord(snr, int(group[0]["trials"]), errors,
                                 group[0]["flags"]))
    return records


def records_to_json_lines(records: Sequence[BerRecord], fp) -> None:
    """JSON-lines emission with the fields of the CSV plus `wall_time_s`,
    the seconds the point took; a `ber` or `stderr` that is not a number
    (a point with no trials) is null."""
    for row in _rows(records):
        for key in ("ber", "stderr"):
            if not math.isfinite(row[key]):
                row[key] = None
        fp.write(json.dumps(row, allow_nan=False) + "\n")
