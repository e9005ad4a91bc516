"""Command-line behaviour: flags, exit codes, files, reproducibility."""

import hashlib
import json
import os
import stat
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from pgcache import cli, scheme as scheme_module
from pgcache.cli import main
from pgcache.subspaces import InvariantError
from test_scheme import DOCUMENT_LADDER


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


# (k, m, t, q): K, F, D, c, d, M/N, R and R*F as `params` prints them.
_PARAMS_OUTPUTS = {
    (3, 1, 1, 2): (7, 21, 12, 4, 3, "3/7", "3/7 (0.4286)", "4/3", "4/3 (1.3333)", 28),
    (6, 3, 2, 2): (31, 26040, 13440, 16, 5, "15/31", "15/31 (0.4839)",
                   "16/5", "16/5 (3.2000)", 83328),
    (4, 2, 1, 4): (85, 95200, 71680, 64, 4, "21/85", "21/85 (0.2471)", "16", "16", 1523200),
    (5, 2, 1, 3): (121, 283140, 252720, 108, 4, "13/121", "13/121 (0.1074)",
                   "27", "27", 7644780),
}


@pytest.mark.parametrize("kmtq", sorted(_PARAMS_OUTPUTS))
def test_params_outputs_are_pinned(capsys, kmtq):
    k_users, f, big_d, c, d, cached, cached_text, rate, rate_text, rf = _PARAMS_OUTPUTS[kmtq]
    flags = [f"-{name}{value}" for name, value in zip("kmtq", kmtq)]
    assert run(capsys, "params", *flags) == (0, (
        f"K (users)               = {k_users}\n"
        f"F (subpacketization)    = {f}\n"
        f"D (missing per user)    = {big_d}\n"
        f"c (missing per subfile) = {c}\n"
        f"d (group size / gain)   = {d}\n"
        f"M/N (cached fraction)   = {cached_text}\n"
        f"R (rate)                = {rate_text}\n"
        f"R*F (transmissions)     = {rf}\n"), "")
    assert run(capsys, "params", *flags, "--format", "json") == (0, (
        "{\n"
        f'  "users": {k_users},\n'
        f'  "subpacketization": {f},\n'
        f'  "missing_per_user": {big_d},\n'
        f'  "missing_per_subfile": {c},\n'
        f'  "group_size": {d},\n'
        f'  "cached_fraction": "{cached}",\n'
        f'  "rate": "{rate}",\n'
        f'  "transmissions": {rf}\n'
        "}\n"), "")


def test_construct_report_line_is_pinned(tmp_path, capsys):
    target = tmp_path / "fano.json"
    assert run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2",
               "-o", str(target)) == (
        0, f"wrote {target}: K=7 F=21 D=12 c=4 d=3 R=4/3 packets=28\n", "")


@pytest.mark.parametrize("m,want", [("1", 0), ("2", 2)])
def test_the_module_run_as_a_script_prints_what_main_prints(capsys, m, want):
    """`python -m pgcache.cli` reaches the module's own exit call: the
    child's output and exit code are in-process main's, on success and
    on a refused construction (m + t = k)."""
    argv = ["params", "-k", "3", "-m", m, "-t", "1", "-q", "2"]
    code, out, err = run(capsys, *argv)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "pgcache.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert code == want
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_params_rejects_bad_shape(capsys):
    code, _, err = run(capsys, "params", "-k", "2", "-m", "2", "-t", "2", "-q", "2")
    assert code == 2
    assert "m + t" in err


_EMPTY_DELIVERY = ("error: m=2, t=1, k=3 caches every subfile at every user, "
                   "an empty delivery problem: need m + t < k\n")


@pytest.mark.parametrize("argv", [
    ("params",),
    ("construct", "-o", "out.json"),
    ("construct", "-o", "out.json", "--cap", "1"),  # refused before the cap
])
def test_m_plus_t_equal_to_k_is_refused_up_front(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv[:1], "-k", "3", "-m", "2", "-t", "1", "-q", "2",
                         *argv[1:])
    assert (code, out, err) == (2, "", _EMPTY_DELIVERY)
    assert list(tmp_path.iterdir()) == []


def test_params_accepts_a_large_prime_order(capsys):
    q = 2 ** 61 - 1
    start = time.perf_counter()
    code, out, _ = run(capsys, "params", "-k", "3", "-m", "1", "-t", "1", "-q", str(q))
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert f"K (users)               = {q * q + q + 1}\n" in out


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


def test_construct_exits_5_on_a_broken_invariant(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantError("build_scheme: every clique minus one member is a subfile")

    monkeypatch.setattr(cli, "build_scheme", broken)
    doc = tmp_path / "fano.json"
    code, out, err = run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2",
                         "-o", str(doc))
    assert code == 5
    assert out == ""
    assert err == "error: build_scheme: every clique minus one member is a subfile\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("error,code", [
    (InvariantError("_json_ints: entries are non-negative, found -1"), 5),
    (OSError(28, "No space left on device"), 4),
])
@pytest.mark.parametrize("existing", [None, b"an earlier document"])
def test_a_failed_render_leaves_no_partial_document(tmp_path, capsys, monkeypatch, error,
                                                    code, existing):
    """A render that fails after its first chunk leaves the directory as it
    was: no new file, no temporary file, an existing target unchanged."""
    real_chunks = cli.document_chunks

    def failing(instance):
        chunks = real_chunks(instance)
        yield next(chunks)
        raise error

    monkeypatch.setattr(cli, "document_chunks", failing)
    doc = tmp_path / "fano.json"
    if existing is not None:
        doc.write_bytes(existing)
    got, _, err = run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2",
                      "-o", str(doc))
    assert got == code
    assert err.startswith("error: ")
    if existing is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [doc]
        assert doc.read_bytes() == existing


def test_construct_gives_a_new_document_the_mode_open_gives(tmp_path, capsys):
    made = tmp_path / "made.json"
    made.write_bytes(b"")
    doc = tmp_path / "fano.json"
    code, _, _ = run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2",
                     "-o", str(doc))
    assert code == 0
    assert doc.read_bytes()[:1] == b"{"
    assert doc.stat().st_mode == made.stat().st_mode
    assert sorted(tmp_path.iterdir()) == [doc, made]


def test_construct_keeps_the_mode_of_a_replaced_document(tmp_path, capsys):
    doc = tmp_path / "fano.json"
    doc.write_bytes(b"an earlier document")
    doc.chmod(0o600)
    code, _, _ = run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2",
                     "-o", str(doc))
    assert code == 0
    assert doc.read_bytes()[:1] == b"{"
    assert stat.S_IMODE(doc.stat().st_mode) == 0o600
    assert list(tmp_path.iterdir()) == [doc]


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_construct_refuses_a_read_only_document(tmp_path, capsys):
    doc = tmp_path / "fano.json"
    doc.write_bytes(b"an earlier document")
    doc.chmod(0o444)
    code, out, err = run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2",
                         "-o", str(doc))
    assert code == 4
    assert out == "" and err.startswith("error: ")
    assert doc.read_bytes() == b"an earlier document"
    assert list(tmp_path.iterdir()) == [doc]


def test_construct_refuses_a_document_it_may_not_write(tmp_path, monkeypatch, capsys):
    """The read-only case above as root, who may write any file: the
    target is refused as access() would refuse it to another user."""
    doc = tmp_path / "fano.json"
    doc.write_bytes(b"an earlier document")
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    code, out, err = run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2",
                         "-o", str(doc))
    assert code == 4
    assert out == "" and err == f"error: [Errno 13] Permission denied: '{doc}'\n"
    assert doc.read_bytes() == b"an earlier document"
    assert list(tmp_path.iterdir()) == [doc]


def test_construct_into_a_missing_directory_names_the_target(tmp_path, capsys):
    doc = tmp_path / "missing" / "fano.json"
    code, out, err = run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2",
                         "-o", str(doc))
    assert code == 4
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{doc}'\n"
    assert list(tmp_path.iterdir()) == []


def test_construct_writes_in_place_to_a_pipe(tmp_path, capsys):
    want = tmp_path / "fano.json"
    assert run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2",
               "-o", str(want))[0] == 0
    r, w = os.pipe()
    got = []

    def drain():
        with open(r, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=drain)
    reader.start()
    try:
        code, _, err = run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2",
                           "-o", f"/dev/fd/{w}")
    finally:
        os.close(w)
        reader.join()
    assert (code, err) == (0, "")
    assert got == [want.read_bytes()]


def test_construct_writes_through_a_symlink(tmp_path, capsys):
    target = tmp_path / "fano.json"
    target.write_bytes(b"an earlier document")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, _, _ = run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2",
                     "-o", str(link))
    assert code == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes()[:1] == b"{"
    assert sorted(tmp_path.iterdir()) == [target, link]


_SMALL_LADDER = [row for row in DOCUMENT_LADDER if row[2] < 10 ** 6]


@pytest.mark.parametrize("kmtq,digest,length", _SMALL_LADDER,
                         ids=[",".join(map(str, row[0])) for row in _SMALL_LADDER])
def test_construct_writes_the_ladder_document_and_simulate_loads_it(tmp_path, capsys, kmtq,
                                                                   digest, length):
    doc = tmp_path / "scheme.json"
    flags = [arg for name, value in zip("kmtq", kmtq) for arg in (f"-{name}", str(value))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m = 0 rows
        code, _, _ = run(capsys, "construct", *flags, "-o", str(doc))
        assert code == 0
        assert (hashlib.sha256(doc.read_bytes()).hexdigest(), doc.stat().st_size) == (
            digest, length)
        code, out, _ = run(capsys, "simulate", str(doc), "--trials", "1", "--seed", "3")
    assert code == 0
    assert "decode success  = " in out and "DECODE FAILURES" not in out


def test_simulate_exits_5_on_a_decode_failure(tmp_path, capsys, monkeypatch):
    """One user failing one round: simulate prints the same report, one
    user-round short, names the failure count on stderr and exits 5."""
    doc = tmp_path / "fano.json"
    run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2", "-o", str(doc))
    argv = ["simulate", str(doc), "--trials", "25", "--seed", "9"]
    code, clean, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    decode_round = scheme_module.decode_round
    rounds = []

    def one_failure(*args):
        exact = decode_round(*args)
        if not rounds:
            exact[3] = False
        rounds.append(exact)
        return exact

    monkeypatch.setattr(scheme_module, "decode_round", one_failure)
    code, out, err = run(capsys, *argv)
    assert code == 5
    assert err == "DECODE FAILURES = 1\n"
    assert len(rounds) == 25
    assert out == clean.replace("decode success  = 175/175", "decode success  = 174/175")
    assert out.splitlines() == ["trials          = 25",
                                "decode success  = 174/175 user-rounds",
                                "packets/round   = 28",
                                "measured R*F    = 28",
                                "measured R      = 4/3 (1.3333)"]


def test_simulate_rejects_an_empty_document(tmp_path, capsys):
    """An empty file cannot be mapped; it is still a malformed document."""
    doc = tmp_path / "empty.json"
    doc.write_bytes(b"")
    code, _, err = run(capsys, "simulate", str(doc))
    assert code == 5
    assert "not valid JSON" in err


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


# sha256 of the traces the CLI wrote when it rebuilt the store and
# re-encoded round 0 after the trials; reusing run_trials' round 0 must
# not change a byte, with or without random rounds.
@pytest.mark.parametrize("flags,digest", [
    (["--trials", "2", "--seed", "4"],
     "510223dcbf7c04c439e12157aaea7ba0805a0d5d1435398e98719c207ed75878"),
    (["--trials", "0", "--seed", "4"],
     "510223dcbf7c04c439e12157aaea7ba0805a0d5d1435398e98719c207ed75878"),
    (["--trials", "0", "--seed", "5", "--fixed-demands"],
     "e83879f8efe64529a40a3f2084de53c23cd0135957ae640a138af4c2aa1a43bc"),
    (["--trials", "3", "--seed", "6", "--fixed-demands", "--files", "3",
      "--subfile-len", "5"],
     "ffd42f5431d9ae396e05fd18e142bad4084f70c479e468eeb794c48a9cb6066c"),
    # More files than users: each round draws its demanded files alone;
    # these are the digests of the whole store drawn once.
    (["--trials", "2", "--seed", "4", "--files", "1000"],
     "420dfece65a1976748a43d2b7bef7af01f108cb773b9b689c942d63dd6faacfb"),
    (["--trials", "0", "--seed", "5", "--fixed-demands", "--files", "1000"],
     "70dad990e198903206c0afd4e8ad7b4b97caa6b71b6e2b199d02a2125d11f182"),
    (["--trials", "3", "--seed", "6", "--fixed-demands", "--files", "1000",
      "--subfile-len", "5"],
     "8be1e00fb4f948aba035a82a104aa2ea27287d3d3b30416cb4278ecc2b6933f1"),
])
def test_simulate_trace_bytes_are_unchanged(tmp_path, capsys, flags, digest):
    doc = tmp_path / "fano.json"
    trace = tmp_path / "round0.trace"
    run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2", "-o", str(doc))
    code, out, _ = run(capsys, "simulate", str(doc), *flags, "--trace", str(trace))
    assert code == 0
    assert "(28 packets)" in out
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("message,printed", [
    ("Unable to allocate 13.4 TiB for an array with shape (1837500000000,) and data type "
     "uint64", None),
    ("", "out of memory"),
])
def test_simulate_exits_3_on_a_store_too_large_for_memory(tmp_path, capsys, monkeypatch,
                                                          message, printed):
    doc = tmp_path / "fano.json"
    run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2", "-o", str(doc))

    empty = np.empty

    def too_large(shape, *args, **kwargs):
        if shape == (7, 21, 100000000000):  # run_trials' file cache
            raise MemoryError(message)
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", too_large)
    code, out, err = run(capsys, "simulate", str(doc), "--subfile-len", "100000000000",
                         "--trials", "1")
    assert code == 3
    assert out == ""
    assert err == f"error: {printed or message}\n"


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


def test_cap_env_must_be_an_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PGCACHE_CAP", "abc")
    code, out, err = run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2",
                         "-o", str(tmp_path / "fano.json"))
    assert code == 2
    assert out == ""
    assert err == "error: PGCACHE_CAP must be an integer, got 'abc'\n"


@pytest.mark.parametrize("flags,message", [
    (("--trials", "-3"), "trials must be >= 0, got -3"),
    (("--files", "0"), "num_files must be >= 1, got 0"),
    (("--files", "0", "--fixed-demands"), "num_files must be >= 1, got 0"),
])
def test_simulate_rejects_bad_counts(tmp_path, capsys, flags, message):
    doc = tmp_path / "fano.json"
    run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2", "-o", str(doc))
    code, out, err = run(capsys, "simulate", str(doc), *flags)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# Every integer flag at 0 and -1, and a seed past 64 bits: the exit code
# and a fragment of what the CLI prints.  Each case refuses before any
# large allocation, through the closed forms or the cap.
_EDGE_CASES = [
    ("params", "-k", 0, 2, "need m + t <= k, got m=1, t=1, k=0"),
    ("params", "-k", -1, 2, "need m + t <= k, got m=1, t=1, k=-1"),
    ("params", "-m", 0, 0, "K (users)               = 7"),
    ("params", "-m", -1, 2, "m must be >= 0, got -1"),
    ("params", "-t", 0, 2, "t must be >= 1, got 0"),
    ("params", "-t", -1, 2, "t must be >= 1, got -1"),
    ("params", "-q", 0, 2, "q must be at least 2, got 0"),
    ("params", "-q", -1, 2, "q must be at least 2, got -1"),
    ("construct", "-k", 0, 2, "need m + t <= k, got m=1, t=1, k=0"),
    ("construct", "-k", -1, 2, "need m + t <= k, got m=1, t=1, k=-1"),
    ("construct", "-m", 0, 0, "K=7 F=7 D=6 c=6 d=2 R=3 packets=21"),
    ("construct", "-m", -1, 2, "m must be >= 0, got -1"),
    ("construct", "-t", 0, 2, "t must be >= 1, got 0"),
    ("construct", "-t", -1, 2, "t must be >= 1, got -1"),
    ("construct", "-q", 0, 2, "q must be at least 2, got 0"),
    ("construct", "-q", -1, 2, "q must be at least 2, got -1"),
    ("construct", "--cap", 0, 3, "predicted 84 vertices (K=7, D=12, F=21) exceed cap 0"),
    ("construct", "--cap", -1, 3, "predicted 84 vertices (K=7, D=12, F=21) exceed cap -1"),
    ("simulate", "--trials", 0, 0, "decode success  = 0/0 user-rounds"),
    ("simulate", "--trials", -1, 2, "trials must be >= 0, got -1"),
    ("simulate", "--seed", 0, 0, "decode success  = 7/7 user-rounds"),
    ("simulate", "--seed", -1, 2, "seed must be >= 0, got -1"),
    ("simulate", "--seed", 2 ** 64, 0, "decode success  = 7/7 user-rounds"),
    ("simulate --files 1000 --trials 0", "--seed", -1, 2, "seed must be >= 0, got -1"),
    ("simulate --files 1000 --trials 1", "--seed", -1, 2, "seed must be >= 0, got -1"),
    ("simulate", "--files", 0, 2, "num_files must be >= 1, got 0"),
    ("simulate", "--files", -1, 2, "num_files must be >= 1, got -1"),
    ("simulate", "--subfile-len", 0, 2, "subfile_len must be >= 1, got 0"),
    ("simulate", "--subfile-len", -1, 2, "subfile_len must be >= 1, got -1"),
    ("bounds", "-K", 0, 2, "need at least one user"),
    ("bounds", "-K", -1, 2, "need at least one user"),
    ("bounds", "-F", 0, 2, "need 0 < D <= F"),
    ("bounds", "-F", -1, 2, "need 0 < D <= F"),
    ("bounds", "-D", 0, 2, "need 0 < D <= F"),
    ("bounds", "-D", -1, 2, "need 0 < D <= F"),
    ("sweep", "-q", 0, 2, "q must be at least 2, got 0"),
    ("sweep", "-q", -1, 2, "q must be at least 2, got -1"),
    ("sweep", "--alpha", 0, 2, "alpha must be at least 1 (alpha = 0 is degenerate)"),
    ("sweep", "--alpha", -1, 2, "alpha must be at least 1 (alpha = 0 is degenerate)"),
    ("sweep", "--start", 0, 2, "k-t = 0 with alpha = 1 leaves m = -1 < 1"),
    ("sweep", "--start", -1, 2, "k-t = -1 with alpha = 1 leaves m = -2 < 1"),
    ("sweep", "--end", 0, 2, "no k-t values to sweep"),
    ("sweep", "--end", -1, 2, "no k-t values to sweep"),
]


@pytest.mark.parametrize("command,flag,value,code,fragment", _EDGE_CASES,
                         ids=[f"{c}{f}={v}" for c, f, v, _, _ in _EDGE_CASES])
def test_integer_flag_edge_values(tmp_path, capsys, command, flag, value, code, fragment):
    fano = ["-k", "3", "-m", "1", "-t", "1", "-q", "2"]
    base = {
        "params": ["params", *fano],
        "construct": ["construct", *fano, "-o", str(tmp_path / "out.json")],
        "simulate": ["simulate", str(tmp_path / "fano.json"), "--trials", "1"],
        "bounds": ["bounds", "-K", "7", "-F", "42", "-D", "24"],
        "sweep": ["sweep", "-q", "2", "--alpha", "1", "--start", "3", "--end", "4"],
    }[command.split()[0]] + command.split()[1:]
    if base[0] == "simulate":
        run(capsys, "construct", *fano, "-o", base[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m = 0 is degenerate
        # argparse keeps the last value of a repeated flag
        got, out, err = run(capsys, *base, flag, str(value))
    assert got == code
    assert fragment in (out if code == 0 else err)


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


def test_simulate_rejects_a_vertex_in_no_clique(tmp_path, capsys):
    doc = tmp_path / "fano.json"
    run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2", "-o", str(doc))
    data = json.loads(doc.read_text())
    del data["delivery"][-1]
    doc.write_text(json.dumps(data))
    code, _, err = run(capsys, "simulate", str(doc))
    assert code == 5
    assert "in no delivery clique" in err


def test_simulate_rejects_a_document_nested_too_deeply(tmp_path, capsys):
    doc = tmp_path / "deep.json"
    doc.write_text('{"format":"pgcache/1","root":' + "[" * 100000 + "]" * 100000 + "}")
    code, _, err = run(capsys, "simulate", str(doc))
    assert code == 5
    assert "nested too deeply" in err


def test_simulate_rejects_a_document_that_is_not_ascii(tmp_path, capsys):
    doc = tmp_path / "fano.json"
    run(capsys, "construct", "-k", "3", "-m", "1", "-t", "1", "-q", "2", "-o", str(doc))
    doc.write_bytes(doc.read_bytes().replace(b"pgcache/1", "pgcache/1é".encode()))
    code, _, err = run(capsys, "simulate", str(doc))
    assert code == 5
    assert "not ASCII" in err


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


def test_bounds_csv_of_a_triple_that_is_not_biregular(capsys):
    """The bound that does not apply prints as None, and such a triple
    alone adds the biregular_note column."""
    code, out, err = run(capsys, "bounds", "-K", "7", "-F", "3", "-D", "1", "--format", "csv")
    assert (code, err) == (0, "")
    assert out == ("users,subpacketization,missing_per_user,biregular_bound,pda_bound,"
                   "cutset_bound,cutset_exact,biregular_note\n"
                   "7,3,1,None,3,2,21/17,K*D/F = 7/3 is not a positive integer\n")


def test_bounds_text_of_a_triple_that_is_not_biregular(capsys):
    """The text format prints the bound that does not apply as n/a, with
    the reason on its own line under it."""
    code, out, err = run(capsys, "bounds", "-K", "7", "-F", "3", "-D", "1")
    assert (code, err) == (0, "")
    assert out == ("biregular bound : R*F >= n/a\n"
                   "                  (K*D/F = 7/3 is not a positive integer)\n"
                   "pda bound       : R*F >= 3\n"
                   "cutset bound    : R*F >= 2 (exact 21/17 (1.2353))\n")


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
