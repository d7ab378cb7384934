"""netcode benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload through `netcode.cli.cli_main`, each repeat in a
fresh interpreter (perfbench/child.py), until `--seconds` is used up,
checks every output against the references in perfbench/checks.py, and
prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones (medians over the repeats); with `--trace 1` each repeat runs
twice on the same inputs, untraced and traced, and the metrics are the
per-layer ones.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

NET34 = ([[1, 0, 1, 1],
          [0, 1, 0, 1],
          [0, 0, 1, 0]], [1, 2, 3, 2])
CODE1 = ([[1, 0, 0, 1, 1, 0],
          [0, 1, 0, 0, 1, 1],
          [0, 0, 1, 1, 0, 1]], [1, 2, 3, 1, 2, 3])

# A repeat that takes longer than this has hung; the run has a 180 s limit.
CHILD_TIMEOUT = 150

# Rounds per SNR point for the channel statistics checks.
CHANNEL_SAMPLE = 16384

# Batches a sweep point may use before it is capped; far above what any
# point needs, so a capped point is a failure.
BATCHES_CAP = 4096


@dataclass(frozen=True)
class Sweep:
    """A `netcode simulate` workload."""

    grid: tuple[float, ...]
    decoder: str
    errors: int                   # min_errors_per_bit
    batch: int                    # batch_size
    workers: int                  # NETCODE_THREADS
    sample: int                   # rounds per SNR point for the decoder checks
    code: tuple | None = None     # inline (rows, schedule)
    design_k: int | None = None   # or a {"k", "d": 3} design request
    snc: bool = False

    def config(self, master_seed: int) -> dict:
        obj = {"snr_grid_db": list(self.grid), "decoder": self.decoder,
               "mode": "optimal", "fading_mode": "block_iid", "snc": self.snc,
               "sp_iters": 4, "min_errors_per_bit": self.errors,
               "max_trials": self.batch * BATCHES_CAP,
               "batch_size": self.batch, "master_seed": master_seed}
        if self.code is not None:
            rows, v = self.code
            obj["code"] = {"k": len(rows), "n": len(rows[0]),
                           "G": [b for r in rows for b in r], "v": v}
        else:
            obj["design"] = {"k": self.design_k, "d": 3}
        return obj


@dataclass(frozen=True)
class Design:
    """`netcode design --k K --d 3` over ks, then one tradeoff table."""

    ks: tuple[int, ...]
    tradeoff_k: int
    tradeoff_n: tuple[int, int]


WORKLOADS = {
    "map-net34": Sweep(grid=(6, 9, 12, 15, 18), decoder="map", errors=200,
                       batch=16384, workers=1, code=NET34, sample=2048),
    "sp-k10-snc": Sweep(grid=(4, 6, 8, 10, 12), decoder="sp", errors=50,
                        batch=8192, workers=1, design_k=10, snc=True, sample=32),
    "sp-code1-2proc": Sweep(grid=(4, 6, 8, 10, 12), decoder="sp", errors=200,
                            batch=16384, workers=2, code=CODE1, sample=64),
    # K = 21..24 are left out to fit the run; K = 25 stays for the
    # rate-advantage check and the separation-vector memory peak.
    "design-d3": Design(ks=tuple(range(3, 21)) + (25,), tradeoff_k=3,
                        tradeoff_n=(6, 19)),
}


@dataclass
class Tally:
    """Operations attempted and failed, and every failed check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, problems: list[str], failed: bool = False) -> None:
        self.attempted += 1
        self.problems += problems
        self.failed += bool(problems) or failed


# -- running one repeat -----------------------------------------------------

def run_child(work: Path, tag: str, commands: list[list[str]], trace: bool,
              workers: int, codes: int = 0) -> dict:
    job = work / f"{tag}.job.json"
    job.write_text(json.dumps({"commands": commands, "trace": trace,
                               "codes": codes}))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["NETCODE_THREADS"] = str(workers)
    # own session, so that a timeout also ends the pool's workers
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(job)],
                            env=env, cwd=work, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT)
    except BaseException:  # timeout, or this run being stopped
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"repeat {tag} failed ({proc.returncode}):\n"
                           + stderr[-2000:])
    out = json.loads(stdout.strip().splitlines()[-1])
    print(f"repeat {tag}: " + ", ".join(f"{key} {value}" for key, value in out.items()
                                       if key != "layers"), file=sys.stderr)
    return out


def repeat_until(seconds: float, one_repeat) -> None:
    """Call one_repeat(r) for r = 0, 1, ... while the next repeat, if it
    takes as long as the last one, still ends within `seconds`."""
    t0 = time.perf_counter()
    r = 0
    while True:
        t = time.perf_counter()
        one_repeat(r)
        r += 1
        now = time.perf_counter()
        if now - t0 + (now - t) > seconds:
            return


# -- sweeps -----------------------------------------------------------------

def read_records(path: Path, k: int) -> list[dict]:
    with open(path) as fp:
        rows = list(csv.DictReader(fp))
    points = []
    for start in range(0, len(rows), k):
        group = rows[start:start + k]
        points.append({
            "snr_db": float(group[0]["snr_db"]),
            "sources": [int(r["source"]) for r in group],
            "trials": [int(r["trials"]) for r in group],
            "errors": [int(r["errors"]) for r in group],
            "ber": [float(r["ber"]) for r in group],
            "flags": [r["flags"] for r in group],
        })
    return points


def check_point(w: Sweep, rows, own_slot, snr_db: float, pt: dict | None) -> tuple[list[str], bool]:
    """(problems, capped) for one SNR point of one sweep."""
    k = len(rows)
    if pt is None:
        return [f"{snr_db} dB: no record"], False
    trials = pt["trials"][0]
    if (pt["snr_db"] != snr_db or pt["sources"] != list(range(1, k + 1))
            or len(set(pt["trials"])) != 1 or len(set(pt["flags"])) != 1
            or trials <= 0 or trials % w.batch != 0):
        return [f"{snr_db} dB: malformed record {pt}"], False
    problems = [f"{snr_db} dB source {i + 1}: ber {pt['ber'][i]} != "
                f"{pt['errors'][i]}/{trials}"
                for i in range(k) if pt["ber"][i] != pt["errors"][i] / trials]
    capped = pt["flags"][0] == "capped" or min(pt["errors"]) < w.errors
    problems += checks.bound_violations(rows, own_slot, snr_db, trials,
                                        pt["errors"], exact_map=w.decoder == "map")
    return problems, capped


def sample_checks(w: Sweep, code, seed: int) -> list[list[str]]:
    """Per SNR point: the program's channel and decoder against the
    references, on sample batches simulated from the seed."""
    import netcode
    rows = code.G.to_lists()
    out = []
    for s, snr_db in enumerate(w.grid):
        fading = netcode.FadingModel("block_iid", 10.0 ** (snr_db / 10.0))
        snc = netcode.SncPolicy(w.snc)
        batch = netcode.simulate_rounds(code, fading, snc,
                                        np.random.default_rng([seed, s, 0, 2]),
                                        CHANNEL_SAMPLE)
        problems = checks.channel_violations(rows, list(code.v), float(snr_db),
                                             w.snc, batch)
        batch = netcode.simulate_rounds(code, fading, snc,
                                        np.random.default_rng([seed, s, 0, 1]),
                                        w.sample)
        decisions = netcode.decode_with_mode_batch(batch, code, 1.0, "optimal",
                                                   w.decoder, 4)
        if w.decoder == "map":
            post = checks.brute_map_posteriors(list(code.v), batch)
            wrong = ((post > 0.5) != decisions) & (np.abs(post - 0.5) > 1e-9)
            if wrong.any():
                problems.append(f"{snr_db} dB: MAP decisions differ from the "
                                f"brute force on {int(wrong.sum())} bits")
        else:
            llrs, _ = netcode.sp_decode_batch(batch, code, 1.0, 4)
            ref = np.array([checks.loop_sp_llrs(batch.g_eff[r], batch.y[r],
                                                batch.h[r], batch.p_e[r])
                            for r in range(w.sample)])
            gap = float(np.abs(ref - llrs).max())
            if gap > checks.LLR_TOL:
                problems.append(f"{snr_db} dB: SP LLRs differ from the loop "
                                f"reference by {gap:.3g}")
            if not np.array_equal(decisions, (ref < 0).astype(np.uint8)):
                problems.append(f"{snr_db} dB: SP decisions differ from the "
                                "loop reference")
        out.append(problems)
    return out


def simulated_batches(w: Sweep, points: list[dict]) -> tuple[int, int]:
    """(batches simulated, rounds in records).  A wave runs `workers`
    batches at once, so a point stopping at batch b has simulated up to
    the end of b's wave."""
    batches = rounds = 0
    for pt in points:
        used = pt["trials"][0] // w.batch
        batches += min(math.ceil(used / w.workers) * w.workers, BATCHES_CAP)
        rounds += pt["trials"][0]
    return batches, rounds


def run_sweep_workload(w: Sweep, seed: int, seconds: float, trace: bool,
                       work: Path, workers: int) -> tuple[Tally, list[dict]]:
    import netcode
    if w.code is not None:
        rows, v = w.code
        code = netcode.network_code(netcode.BitMatrix.from_rows(rows), v)
    else:
        code = netcode.code_for_requirements(w.design_k, 3)
        rows = code.G.to_lists()
    own_slot = checks.own_uncoded_slots(rows)
    tally = Tally()
    design_problems = []
    if w.design_k is not None:
        if code.n != checks.hamming_min_length(w.design_k):
            design_problems.append(f"design length {code.n}")
        if not checks.distance3_by_parity(rows):
            design_problems.append("design distance below 3")
    sample = sample_checks(w, code, seed)

    reps: list[dict] = []

    def one_repeat(r: int) -> None:
        tag = f"r{r}"
        cfg = work / f"{tag}.config.json"
        cfg.write_text(json.dumps(w.config(seed * 1000 + r)))
        commands = [["simulate", "--config", str(cfg), "-o", str(work / f"{tag}.csv")]]
        rep = {"plain": run_child(work, tag, commands, False, workers)}
        if trace:
            rep["traced"] = run_child(work, tag + "t", commands, True, workers)
        points = read_records(work / f"{tag}.csv", code.k)
        by_snr = {pt["snr_db"]: pt for pt in points}
        for s, snr_db in enumerate(w.grid):
            problems, capped = check_point(w, rows, own_slot, float(snr_db),
                                           by_snr.get(float(snr_db)))
            tally.op(problems + sample[s] + design_problems, failed=capped)
        rep["points"] = points
        rep["units"] = sum(pt["trials"][0] for pt in points)
        reps.append(rep)

    repeat_until(seconds, one_repeat)
    return tally, reps


# -- design -----------------------------------------------------------------

def check_code(K: int, obj: dict) -> list[str]:
    k, n = obj["k"], obj["n"]
    if k != K or len(obj["G"]) != k * n or len(obj["v"]) != n:
        return [f"K={K}: malformed code"]
    rows = [obj["G"][i * n:(i + 1) * n] for i in range(k)]
    sep, v = obj["sep"], obj["v"]
    problems = []
    if n != checks.hamming_min_length(K):
        problems.append(f"K={K}: length {n}, Hamming bound gives "
                        f"{checks.hamming_min_length(K)}")
    if not checks.distance3_by_parity(rows):
        problems.append(f"K={K}: not a systematic distance-3 code")
    if len(sep) != k or min(sep) < 3 or any(sep[i] > sum(rows[i]) for i in range(k)):
        problems.append(f"K={K}: separation vector {sep} out of range")
    if K <= 16 and list(sep) != checks.brute_separation(rows):
        problems.append(f"K={K}: separation vector {sep} != brute force "
                        f"{checks.brute_separation(rows)}")
    for j in range(n):
        src = v[j] - 1
        if not (0 <= src < k and rows[src][j]):
            problems.append(f"K={K}: slot {j} sent by a node not in it")
            continue
        for i in range(k):
            if i != src and rows[i][j] and not any(
                    v[m] == i + 1 and rows[i][m] for m in range(j)):
                problems.append(f"K={K}: slot {j} combines source {i + 1} "
                                "before it was sent")
    if K == 25 and 3 * K / n != 2.5:
        problems.append(f"K=25: rate advantage {3 * K / n}, expected 2.5")
    return problems


def check_tradeoff(w: Design, path: Path) -> list[str]:
    with open(path) as fp:
        table = list(csv.DictReader(fp))
    lo, hi = w.tradeoff_n
    k = w.tradeoff_k
    if [int(r["n"]) for r in table] != list(range(lo, hi + 1)):
        return ["tradeoff: wrong rows"]
    problems = []
    for r in table:
        n, d = int(r["n"]), int(r["d"])
        gmin, gmax, gavg = int(r["greedy_min"]), int(r["greedy_max"]), float(r["greedy_avg"])
        rep = (int(r["rep_min"]), int(r["rep_max"]), float(r["rep_avg"]))
        adv = float(r["rate_advantage"])
        ok = (int(r["k"]) == k and float(r["rate"]) == k / n
              and checks.gilbert_distance(n, k) <= d <= checks.griesmer_max_distance(n, k)
              and d <= gmin <= gavg <= gmax <= n
              and rep == checks.repetition_split(k, n)
              and 1.0 <= adv <= k * d / checks.griesmer_length(d, k))
        if not ok:
            problems.append(f"tradeoff: row {r} fails its bounds")
    return problems


def run_design_workload(w: Design, seed: int, seconds: float, trace: bool,
                        work: Path, workers: int) -> tuple[Tally, list[dict]]:
    tally = Tally()
    reps: list[dict] = []

    def one_repeat(r: int) -> None:
        ks = list(w.ks)
        random.Random(seed * 1000 + r).shuffle(ks)
        tag = f"r{r}"
        commands = [["design", "--k", str(K), "--d", "3",
                     "-o", str(work / f"{tag}.k{K}.json")] for K in ks]
        lo, hi = w.tradeoff_n
        commands.append(["tradeoff", "--k", str(w.tradeoff_k), "--n-range",
                         f"{lo}:{hi}", "-o", str(work / f"{tag}.tradeoff.csv")])
        rep = {"plain": run_child(work, tag, commands, False, workers, len(ks))}
        if trace:
            rep["traced"] = run_child(work, tag + "t", commands, True, workers, len(ks))
        for K in ks:
            obj = json.loads((work / f"{tag}.k{K}.json").read_text())
            tally.op(check_code(K, obj))
        tally.op(check_tradeoff(w, work / f"{tag}.tradeoff.csv"))
        rep["units"] = len(ks)
        reps.append(rep)

    repeat_until(seconds, one_repeat)
    return tally, reps


# -- metrics ----------------------------------------------------------------

def end_to_end(reps: list[dict]) -> dict:
    """End-to-end metrics over the untraced repeats of a run.  A repeat's
    `units` are the rounds in its records, or the codes it emitted."""
    def median(key: str) -> float:
        return statistics.median(rep["plain"][key] for rep in reps)
    return {
        "setup_s": (median("setup_s"), "s"),
        "sweep_s": (median("job_s"), "s"),
        "rounds_per_s": (statistics.median(rep["units"] / rep["plain"]["job_s"]
                                           for rep in reps), "rounds/s"),
        "design_s": (statistics.mean(t for rep in reps
                                     for t in rep["plain"]["design_s"]), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
    }


def _per_round(seconds: float, rounds: int) -> float:
    return seconds / rounds * 1e9 if rounds else 0.0


def per_layer(w, reps: list[dict]) -> dict:
    """Per-layer metrics, each the median over the traced repeats."""
    per_rep = []
    for rep in reps:
        lay = dict(rep["traced"]["layers"])
        if isinstance(w, Sweep):
            batches, rounds = simulated_batches(w, rep["points"])
            lay["harness.batches"] = batches
            lay["harness.rounds_simulated"] = batches * w.batch
            lay["harness.rounds_discarded"] = batches * w.batch - rounds
            lay["harness.useful_ratio"] = rounds / (batches * w.batch)
        lay["overhead"] = rep["traced"]["wall_s"] / rep["plain"]["wall_s"] - 1.0
        per_rep.append(layer_metrics(lay))
    return {name: (statistics.median(m[name][0] for m in per_rep), unit)
            for name, (_, unit) in per_rep[0].items()}


def layer_metrics(lay: dict) -> dict:
    """The per-layer metrics of one traced repeat; a layer the workload
    does not reach reads 0."""
    g = lambda key: lay.get(key, 0)  # noqa: E731
    return {
        "cli.self_s": (g("cli.self_s"), "s"),
        "harness.run_sweep_s": (g("harness.run_sweep_s"), "s"),
        "harness.self_s": (g("harness.self_s"), "s"),
        "harness.batches": (g("harness.batches"), "count"),
        "harness.rounds_simulated": (g("harness.rounds_simulated"), "rounds"),
        "harness.rounds_discarded": (g("harness.rounds_discarded"), "rounds"),
        "harness.useful_ratio": (g("harness.useful_ratio"), "ratio"),
        "channel.simulate_rounds_s": (g("channel.simulate_rounds_s"), "s"),
        "channel.calls": (g("channel.simulate_rounds_calls"), "count"),
        "channel.ns_per_round": (_per_round(g("channel.simulate_rounds_s"),
                                            g("channel.simulate_rounds_rounds")), "ns"),
        "channel.self_s": (g("channel.self_s"), "s"),
        "decoders.map_s": (g("decoders.map_decode_batch_s"), "s"),
        "decoders.map_ns_per_round": (_per_round(g("decoders.map_decode_batch_s"),
                                                 g("decoders.map_decode_batch_rounds")), "ns"),
        "decoders.map_table_bytes": (g("map_table_bytes"), "bytes"),
        "decoders.sp_s": (g("decoders.sp_decode_batch_s"), "s"),
        "decoders.sp_ns_per_round": (_per_round(g("decoders.sp_decode_batch_s"),
                                                g("decoders.sp_decode_batch_rounds")), "ns"),
        "decoders.sp_message_bytes": (g("sp_message_bytes"), "bytes"),
        "decoders.self_s": (g("decoders.self_s"), "s"),
        "design.greedy_code_s": (g("design.greedy_code_s"), "s"),
        "design.greedy_code_calls": (g("design.greedy_code_calls"), "count"),
        "design.code_for_requirements_s": (g("design.code_for_requirements_s"), "s"),
        "design.separation_vector_s": (g("design.separation_vector_s"), "s"),
        "design.separation_vector_calls": (g("design.separation_vector_calls"), "count"),
        "design.self_s": (g("design.self_s"), "s"),
        "gf2.s": (g("gf2.s"), "s"),
        "gf2.calls": (g("gf2.calls"), "count"),
        "gf2.self_s": (g("gf2.self_s"), "s"),
        "trace.overhead_pct": (100.0 * g("overhead"), "%"),
    }


# -- entry point ------------------------------------------------------------

def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workers", type=int,
                   help="override the workload's NETCODE_THREADS "
                        "(for the scaling reference figure only)")
    args = p.parse_args()
    # stopping the run stops the repeat in flight and removes the work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "netcode" / "__init__.py").is_file():
        print(f"error: no netcode sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = WORKLOADS[args.workload]
    workers = args.workers or getattr(w, "workers", 1)
    run = run_sweep_workload if isinstance(w, Sweep) else run_design_workload
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        tally, reps = run(w, args.seed, args.seconds, bool(args.trace), work, workers)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = per_layer(w, reps) if args.trace else end_to_end(reps)
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
