import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import netcode.cli
import netcode.design
from netcode.cli import cli_main
from netcode.design import NetworkCode, repetition_code


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- design

def test_design_by_sources_and_distance(capsys, tmp_path):
    out_file = tmp_path / "code.json"
    code, _, _ = run_cli(capsys, "design", "--k", "3", "--d", "3",
                         "-o", str(out_file))
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert obj["k"] == 3 and obj["n"] == 6
    assert obj["sep"] == [3, 3, 3]
    assert len(obj["G"]) == 18
    # schedule assigns each source two slots, systematic slots first
    assert obj["v"][:3] == [1, 2, 3]
    assert sorted(obj["v"]) == [1, 1, 2, 2, 3, 3]
    assert NetworkCode.from_json_dict(obj).v == tuple(obj["v"])


def test_design_by_length_and_distance(capsys):
    code, out, _ = run_cli(capsys, "design", "--n", "7", "--d", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["k"] == 3 and obj["n"] == 7
    assert obj["sep"] == [4, 4, 4]


def test_design_by_length_rejects_empty_slots(capsys):
    """The greedy code of length 4 at distance 3 is the repetition code
    on three slots; the fourth would carry nothing."""
    code, out, err = run_cli(capsys, "design", "--n", "4", "--d", "3")
    assert code == 2
    assert out == ""
    assert "--n 4" in err and "n = 3" in err


@pytest.mark.parametrize("n, d", [(100_000, 1), (10_000, 3)])
def test_design_by_length_stops_past_the_source_limit(capsys, n, d):
    """The lexicode pass stops at the row past the separation vector's
    limit instead of building every row first."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "design", "--n", str(n), "--d", str(d))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (f"error: --n {n}: the greedy code at distance {d} "
                   f"has more than 28 sources\n")


def test_design_requires_k_or_n(capsys):
    code, _, err = run_cli(capsys, "design", "--d", "3")
    assert code == 2
    assert "error" in err


# ------------------------------------------------------------------- analyze

def test_analyze_reports_code_properties(capsys, tmp_path, code2):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code2.to_json_dict()))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "k = 3, n = 5, rate = 3/5" in out
    assert "separation vector = [3, 2, 2]" in out
    assert "schedule valid = True" in out


def test_analyze_reports_schedule_violations(capsys, tmp_path, net34):
    obj = net34.to_json_dict()
    obj["v"] = [2, 2, 3, 2]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "schedule valid = False" in out
    assert "violation" in out


def test_analyze_rejects_too_many_sources(capsys, tmp_path):
    k, n = 29, 30
    G = [int(i == j or j == n - 1) for i in range(k) for j in range(n)]
    obj = {"k": k, "n": n, "G": G, "v": list(range(1, k + 1)) + [1]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert "k = 29" in err and "28" in err


def test_analyze_rejects_more_than_64_slots(capsys, tmp_path):
    rep = repetition_code(3, 70)
    obj = {"k": 3, "n": 70, "G": [b for row in rep.G.to_lists() for b in row],
           "v": list(rep.v)}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: G: n = 70") and "64" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_analyze_rejects_all_zero_row(capsys, tmp_path):
    obj = {"k": 2, "n": 3, "G": [1, 0, 1, 0, 0, 0], "v": [1, 1, 1]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: G: row 1 is all-zero") and err.count("\n") == 1


def test_analyze_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read" in err


def test_analyze_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2


# ------------------------------------------------------------------ simulate

def test_simulate_csv_output(capsys, tmp_path, code1):
    cfg = {"code": code1.to_json_dict(), "snr_grid_db": [0.0, 4.0],
           "decoder": "sp", "min_errors_per_bit": 5, "max_trials": 10_000,
           "batch_size": 2000, "master_seed": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg_path),
                         "-o", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "snr_db,source,trials,errors,ber,stderr,flags"
    assert len(lines) == 1 + 2 * 3


def test_simulate_json_lines(capsys, tmp_path, code1):
    cfg = {"code": code1.to_json_dict(), "snr_grid_db": [2.0],
           "decoder": "sp", "min_errors_per_bit": 5, "max_trials": 6000,
           "batch_size": 2000}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg_path),
                           "--json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 3
    assert {r["source"] for r in rows} == {1, 2, 3}


def test_simulate_json_lines_are_strict_json(capsys, tmp_path, code1):
    """A point with no trials has no BER: null, not a bare NaN, which
    RFC 8259 does not allow.  Every row carries its point's measured wall
    time."""
    cfg = {"code": code1.to_json_dict(), "snr_grid_db": [2.0],
           "decoder": "sp", "max_trials": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg_path),
                           "--json")
    assert code == 0

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    rows = [json.loads(line, parse_constant=reject) for line in out.splitlines()]
    assert [(r["trials"], r["ber"], r["stderr"]) for r in rows] == [(0, None, None)] * 3
    assert len({r["wall_time_s"] for r in rows}) == 1
    assert all(type(r["wall_time_s"]) is float and r["wall_time_s"] >= 0 for r in rows)


def test_simulate_missing_config(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--config",
                           str(tmp_path / "none.json"))
    assert code == 2
    assert "cannot read config" in err


@pytest.mark.parametrize("config, message", [
    ({"design": {"k": 3, "d": 3}, "snr_grid_db": [4.0, 2.0]}, "increasing"),
    ([1, 2], "config must be a JSON object"),
    ({"design": {"k": 3, "d": 3}}, "malformed config: 'snr_grid_db'"),
])
def test_simulate_invalid_config(capsys, tmp_path, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert out == ""
    assert message in err


def _write_config(tmp_path, network, **over):
    cfg = {"code": network.to_json_dict(), "snr_grid_db": [2.0],
           "decoder": "sp", "min_errors_per_bit": 5, "max_trials": 6000,
           "batch_size": 2000}
    cfg.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("over, field", [
    ({"snc": "false"}, "snc"),
    ({"min_error_per_bit": 5}, "min_error_per_bit"),
    ({"batch_size": 2.5}, "batch_size"),
    ({"max_trials": 1.5}, "max_trials"),
    ({"master_seed": True}, "master_seed"),
    ({"sp_iters": 0}, "sp_iters"),
    ({"master_seed": -1}, "master_seed"),
    ({"snr_grid_db": [float("nan")]}, "snr_grid_db"),
    ({"snr_grid_db": [0.0, float("inf")]}, "snr_grid_db"),
    ({"snr_grid_db": [0.0, float("nan"), 5.0]},
     "snr_grid_db must be strictly increasing, with no NaN"),
    # past the range the channel arithmetic carries, or a float cannot hold
    ({"snr_grid_db": [3080]}, "snr_grid_db"),
    ({"snr_grid_db": [4000]}, "snr_grid_db"),
    ({"snr_grid_db": [10**400]}, "snr_grid_db"),
    ({"snr_grid_db": [-3300]}, "snr_grid_db"),
])
def test_simulate_rejects_bad_config_field(capsys, tmp_path, code1, over, field):
    path = _write_config(tmp_path, code1, **over)
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert field in err
    assert out == ""


@pytest.mark.parametrize("design, field", [
    ({"k": "3", "d": 3}, "design.k"),
    ({"k": 3, "d": 2.5}, "design.d"),
    ({"k": True, "d": 3}, "design.k"),
    ({"k": 0, "d": 3}, "design.k"),
    ({"k": 3, "d": 3, "bogus": 1}, "design.bogus"),
    ([3, 3], "design must be"),
    ({"k": 3}, "design.d"),
])
def test_simulate_rejects_bad_design_request(capsys, tmp_path, design, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"design": design, "snr_grid_db": [0.0]}))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert field in err


@pytest.mark.parametrize("threads", ["two", "-4", "0"])
def test_simulate_rejects_bad_thread_count(capsys, tmp_path, monkeypatch,
                                           code1, threads):
    monkeypatch.setenv("NETCODE_THREADS", threads)
    path = _write_config(tmp_path, code1)
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert "NETCODE_THREADS" in err
    assert out == ""


def test_simulate_rejects_malformed_inline_code(capsys, tmp_path, code1):
    bad = code1.to_json_dict()
    bad["G"] = bad["G"][:-1]  # not k*n entries
    path = _write_config(tmp_path, code1, code=bad)
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert "code: G array length" in err
    assert out == ""


_NET34_G = [1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0]


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("over, message", [
    ({"v": [1, 2, 3, 2.7]}, "v must be a list of n = 4 integers"),
    ({"v": [1, 2, 3, True]}, "v must be a list of n = 4 integers"),
    ({"k": "3"}, "k must be an integer >= 1, got '3'"),
    ({"k": 3.9}, "k must be an integer >= 1, got 3.9"),
    ({"G": [True] + _NET34_G[1:]}, "G must be a list of integers 0 and 1"),
    ({"G": [1.0] + _NET34_G[1:]}, "G must be a list of integers 0 and 1"),
    ({"G": [2] + _NET34_G[1:]}, "G must be a list of integers 0 and 1"),
    ({"k": 0, "n": 0, "G": [], "v": []}, "k must be an integer >= 1, got 0"),
    ({"n": 0, "G": [], "v": []}, "n must be an integer >= 1, got 0"),
    ({"seps": [2, 2, 1]}, "unknown code key(s): seps"),
    ([3, 4], "expected a JSON object with k, n, G and v"),
], ids=["v-float", "v-bool", "k-str", "k-float", "G-bool", "G-float", "G-two",
        "k-n-zero", "n-zero", "unknown-key", "not-an-object"])
def test_code_json_is_strict(capsys, tmp_path, net34, command, over, message):
    """A code file or inline code that is not exactly integers exits 2
    naming the field, before anything runs."""
    obj = {**net34.to_json_dict(), **over} if type(over) is dict else over
    if command == "analyze":
        path = tmp_path / "code.json"
        path.write_text(json.dumps(obj))
        argv = ["analyze", str(path)]
    else:
        argv = ["simulate", "--config", str(_write_config(tmp_path, net34, code=obj))]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("over, violation", [
    ({"v": [1, 2, 4, 1, 2, 3]}, "transmitter 4 outside 1..3"),
    ({"v": [1, 2, 3, 1, 2, 1]}, "zero encoding coefficient"),
    # slot 0 combines sources 1 and 2 before source 2 has transmitted
    ({"k": 2, "n": 3, "G": [1, 1, 0, 1, 0, 1], "v": [1, 2, 2]},
     "causality violation"),
])
def test_simulate_rejects_invalid_schedule(capsys, tmp_path, code1, over, violation):
    path = _write_config(tmp_path, code1, code={**code1.to_json_dict(), **over})
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert "code.v" in err and violation in err
    assert out == ""


# ------------------------------------------------------------------ tradeoff

def test_tradeoff_by_distance_range(capsys):
    code, out, _ = run_cli(capsys, "tradeoff", "--k", "3", "--d-range", "1:4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("k,n,d,rate")
    assert len(lines) == 5
    d3 = lines[3].split(",")
    assert d3[:3] == ["3", "6", "3"]
    assert float(d3[-1]) == pytest.approx(1.5)


def test_tradeoff_by_length_range(capsys):
    code, out, _ = run_cli(capsys, "tradeoff", "--k", "3", "--n-range", "6:7")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_tradeoff_requires_exactly_one_range(capsys):
    code, _, err = run_cli(capsys, "tradeoff", "--k", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "tradeoff", "--k", "3",
                           "--n-range", "3:5", "--d-range", "1:2")
    assert code == 2


def test_tradeoff_bad_range_syntax(capsys):
    code, _, err = run_cli(capsys, "tradeoff", "--k", "3", "--n-range", "3-5")
    assert code == 2
    assert "expected lo:hi" in err


@pytest.mark.parametrize("argv, message", [
    (("tradeoff", "--k", "3", "--n-range", "5:3"), "--n-range"),
    (("tradeoff", "--k", "3", "--n-range", "1:4"), "--n-range"),
    (("tradeoff", "--k", "3", "--d-range", "0:2"), "--d-range"),
    (("tradeoff", "--k", "0", "--d-range", "1:3"), "--k"),
    (("design", "--k", "0", "--d", "3"), "--k"),
    (("design", "--k", "3", "--d", "0"), "--d"),
    (("design", "--n", "3", "--d", "5"), "--n"),
    (("design", "--k", "3", "--n", "6", "--d", "3"), "--n"),
    (("slope", "--input", "sweep.csv", "--source", "0"), "--source"),
    (("slope", "--input", "sweep.csv", "--source", "1", "--window", "0"),
     "--window"),
    (("slope", "--input", "sweep.csv", "--source", "1", "--window", "-1"),
     "--window"),
    (("design", "--k", "29", "--d", "3"), "--k"),
    (("tradeoff", "--k", "30", "--n-range", "30:40"), "--k"),
    (("design", "--n", "40", "--d", "3"), "--n"),
    (("design", "--k", "abc", "--d", "3"), "--k"),
])
def test_usage_errors_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("argv, flag", [
    (("design", "--k", "2", "--d", "20"), "--d"),
    (("design", "--n", "40", "--d", "16"), "--d"),
    (("tradeoff", "--k", "3", "--d-range", "1:16"), "--d-range"),
    (("tradeoff", "--k", "3", "--n-range", "3:40"), "--n-range"),
    (("simulate", "--config", "{config}"), "design.d"),
])
def test_lexicode_table_limit_exits_2(capsys, tmp_path, monkeypatch, argv, flag):
    """A lexicode pass whose coset table outgrows its limit is a usage
    error naming the flag; the limit is made small so the test is fast."""
    monkeypatch.setattr(netcode.design, "MAX_COSET_TABLE", 1000)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"design": {"k": 2, "d": 20}, "snr_grid_db": [0.0]}))
    code, out, err = run_cli(capsys, *(a.format(config=config) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag}: the lexicode search at distance ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("design", "--k", "2", "--d", "20"),
    ("design", "--k", "3", "--d", "15"),
    ("design", "--n", "40", "--d", "16"),
])
def test_hopeless_distance_rejected_up_front(capsys, argv):
    """A request whose pass must outgrow the real coset-table limit is
    rejected before the pass builds anything."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: --d: the lexicode search at distance ")


# --------------------------------------------------------------------- slope

def test_slope_from_csv(capsys, tmp_path):
    lines = ["snr_db,source,trials,errors,ber,stderr,flags"]
    trials = 10**9
    for snr in (10.0, 20.0, 30.0):
        ber = 0.1 * 10 ** (-2 * snr / 10)
        lines.append(f"{snr},1,{trials},{round(ber * trials)},{ber},0,")
    path = tmp_path / "sweep.csv"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "slope", "--input", str(path),
                           "--source", "1")
    assert code == 0
    assert "diversity slope 2" in out


def test_slope_source_beyond_sweep(capsys, tmp_path, code1):
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "simulate", "--config",
                         str(_write_config(tmp_path, code1)), "-o", str(csv_path))
    assert code == 0
    code, out, err = run_cli(capsys, "slope", "--input", str(csv_path),
                             "--source", "4")
    assert code == 2
    assert out == ""
    assert err == "error: --source 4: the input has 3 source(s)\n"


def test_slope_missing_input(capsys, tmp_path):
    code, _, err = run_cli(capsys, "slope", "--input",
                           str(tmp_path / "none.csv"), "--source", "1")
    assert code == 2


def test_slope_insufficient_points(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("snr_db,source,trials,errors,ber,stderr,flags\n"
                    "10,1,1000,10,0.01,0,\n")
    code, out, err = run_cli(capsys, "slope", "--input", str(path),
                             "--source", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --input: ")
    assert "slope window" in err and "Traceback" not in err


HEADER = "snr_db,source,trials,errors,ber,stderr,flags\n"


@pytest.mark.parametrize("text, reason", [
    ("snr,src\n10,1\n", "no 'snr_db' column"),
    (HEADER + "10,1,1000,ten,0.01,0,\n20,1,1000,1,0.001,0,\n", "invalid literal"),
    (HEADER + "10,1\n", "cannot read the sweep CSV"),
    (HEADER + "10,1,1000,10,0.01,0,\n20,1,1000,0,0,0,\n", "zero-error"),
    (HEADER + "10,1,1000,10,0.01,0,\n10,2,1000,10,0.01,0,\n20,1,1000,1,0.001,0,\n",
     "snr_db 20: sources [1], expected 1..2 once each"),
    (HEADER + "10,1,1000,10,0.01,0,\n10,1,500,5,0.01,0,\n20,1,1000,1,0.001,0,\n",
     "snr_db 10: sources [1, 1], expected 1..1 once each"),
    (HEADER + "10,1,1000,10,0.01,0,\n20,2,1000,1,0.001,0,\n",
     "snr_db 20: sources [2], expected 1..1 once each"),
    (HEADER + "10,1,1000,10,0.01,0,\n10,2,500,10,0.02,0,\n"
     "20,1,1000,1,0.001,0,\n20,2,1000,1,0.001,0,\n",
     "snr_db 10: rows disagree on trials or flags"),
    (HEADER + "10,1,1000,10,0.01,0,\n10,2,1000,10,0.01,0,capped\n"
     "20,1,1000,1,0.001,0,\n20,2,1000,1,0.001,0,\n",
     "snr_db 10: rows disagree on trials or flags"),
])
def test_slope_bad_input_names_the_flag(capsys, tmp_path, text, reason):
    path = tmp_path / "sweep.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, "slope", "--input", str(path),
                             "--source", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --input: ") and reason in err
    assert len(err.splitlines()) == 1


def test_internal_error_exits_1_with_traceback(capsys, monkeypatch, tmp_path):
    def broken(*args):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(netcode.cli, "estimate_diversity_slope", broken)
    path = tmp_path / "sweep.csv"
    path.write_text(HEADER + "10,1,1000,10,0.01,0,\n20,1,1000,1,0.001,0,\n")
    code, out, err = run_cli(capsys, "slope", "--input", str(path),
                             "--source", "1")
    assert code == 1
    assert out == ""
    # an unexpected failure prints its traceback before the one-line error
    assert err.startswith("Traceback (most recent call last):")
    assert "RuntimeError: internal fault" in err
    assert err.splitlines()[-1] == "error: internal fault"


# ------------------------------------------------------------------- general

def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_no_subcommand(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_module_entry_point(tmp_path, code2):
    """`python -m netcode.cli` runs the command line."""
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code2.to_json_dict()))
    src = str(Path(netcode.__file__).parents[1])
    result = subprocess.run([sys.executable, "-m", "netcode.cli", "analyze", str(path)],
                            capture_output=True, text=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0
    assert "separation vector = [3, 2, 2]" in result.stdout


def test_help_exits_cleanly(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "design" in out and "simulate" in out
