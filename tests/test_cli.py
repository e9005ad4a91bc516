"""Command-line behaviour: flags, exit codes, files, reproducibility."""

import json

import pytest

from pgcache.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# params
# ----------------------------------------------------------------------

def test_params_text(capsys):
    code, out, _ = run(capsys, "params", "-k", "6", "-m", "3", "-t", "2", "-q", "2")
    assert code == 0
    assert "K (users)               = 31" in out
    assert "R (rate)                = 16/5" in out


def test_params_json(capsys):
    code, out, _ = run(capsys, "params", "-k", "3", "-m", "1", "-t", "1", "-q", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["subpacketization"] == 21
    assert doc["rate"] == "4/3"


def test_params_rejects_bad_shape(capsys):
    code, _, err = run(capsys, "params", "-k", "2", "-m", "2", "-t", "2", "-q", "2")
    assert code == 2
    assert "m + t" in err


def test_params_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "params", "-k", "4", "-m", "1", "-t", "1", "-q", "10")
    assert code == 2
    assert "prime power" in err


# ----------------------------------------------------------------------
# construct / simulate
# ----------------------------------------------------------------------

def test_construct_and_simulate_roundtrip(tmp_path, capsys):
    doc = tmp_path / "fano.json"
    code, out, _ = run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2",
                       "-o", str(doc))
    assert code == 0
    assert doc.exists()
    assert "packets=28" in out

    code, out, _ = run(capsys, "simulate", str(doc), "--trials", "25", "--seed", "9",
                       "--fixed-demands")
    assert code == 0
    assert "27" in out                      # 25 random + all-equal + all-distinct
    assert "packets/round   = 28" in out
    assert "189/189" in out                 # 27 rounds x 7 users


def test_simulate_trace_is_reproducible(tmp_path, capsys):
    doc = tmp_path / "fano.json"
    run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2", "-o", str(doc))
    t1 = tmp_path / "a.trace"
    t2 = tmp_path / "b.trace"
    code1, _, _ = run(capsys, "simulate", str(doc), "--trials", "2", "--seed", "4",
                      "--trace", str(t1))
    code2, _, _ = run(capsys, "simulate", str(doc), "--trials", "2", "--seed", "4",
                      "--trace", str(t2))
    assert code1 == code2 == 0
    assert t1.read_bytes() == t2.read_bytes()
    assert t1.read_bytes()[:4] == b"PGCT"


def test_construct_respects_cap(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "-k", "6", "-m", "3", "-t", "2", "-q", "2",
                       "-o", str(tmp_path / "big.json"), "--cap", "1000")
    assert code == 3
    assert "exceed cap 1000" in err
    assert "F=26040" in err


def test_cap_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PGCACHE_CAP", "10")
    code, _, err = run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2",
                       "-o", str(tmp_path / "fano.json"))
    assert code == 3
    assert "exceed cap 10" in err


def test_simulate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "simulate", str(tmp_path / "nope.json"))
    assert code == 4
    assert "error" in err


def test_simulate_rejects_corrupt_document(tmp_path, capsys):
    doc = tmp_path / "fano.json"
    run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2", "-o", str(doc))
    text = doc.read_text()
    doc.write_text(text.replace("pgcache/1", "pgcache/9"))
    code, _, err = run(capsys, "simulate", str(doc))
    assert code == 5
    assert "unsupported format" in err


def test_simulate_rejects_zero_denominator(tmp_path, capsys):
    doc = tmp_path / "fano.json"
    run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2", "-o", str(doc))
    data = json.loads(doc.read_text())
    data["params"]["rate"] = [1, 0]
    doc.write_text(json.dumps(data))
    code, _, err = run(capsys, "simulate", str(doc))
    assert code == 5
    assert "error" in err


# ----------------------------------------------------------------------
# bounds / tables / sweep
# ----------------------------------------------------------------------

def test_bounds_text(capsys):
    code, out, _ = run(capsys, "bounds", "-K", "7", "-F", "42", "-D", "24")
    assert code == 0
    assert "R*F >= 43" in out
    assert "R*F >= 33" in out
    assert "R*F >= 42" in out


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "-K", "15", "-F", "50", "-D", "30",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["biregular_bound"], doc["pda_bound"], doc["cutset_bound"]) == (71, 54, 65)


def test_bounds_bad_triple(capsys):
    code, _, err = run(capsys, "bounds", "-K", "5", "-F", "10", "-D", "11")
    assert code == 2
    assert "error" in err


def test_tables_commands(capsys):
    code, out, _ = run(capsys, "tables", "table1")
    assert code == 0
    assert "43" in out and "eference doubles" in out
    code, out, _ = run(capsys, "tables", "table3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("scheme,")


def test_sweep_command(capsys):
    code, out, _ = run(capsys, "sweep", "-q", "2", "--alpha", "1",
                       "--start", "3", "--end", "8")
    assert code == 0
    assert "all checks pass: True" in out


def test_sweep_bad_alpha(capsys):
    code, _, err = run(capsys, "sweep", "-q", "2", "--alpha", "0",
                       "--start", "3", "--end", "4")
    assert code == 2
    assert "alpha" in err
