import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from balpack import cli, core, factorization
from balpack.cli import main
from balpack.core import load_packing, verify


def construct(tmp_path, name, *argv):
    out = tmp_path / name
    code = main(["construct", *argv, "--out", str(out)])
    return code, out


def test_construct_latin_writes_verified_file(tmp_path, capsys):
    code, out = construct(tmp_path, "v16.json", "latin", "--v", "16")
    assert code == 0
    assert str(out) in capsys.readouterr().out
    p = load_packing(out)
    assert (p.v, p.t, p.k, p.n_blocks) == (16, 2, 3, 32)
    assert verify(p).passed


def test_construct_is_byte_deterministic(tmp_path):
    _, a = construct(tmp_path, "a.json", "latin", "--v", "12")
    _, b = construct(tmp_path, "b.json", "latin", "--v", "12")
    assert a.read_bytes() == b.read_bytes()
    again = construct(tmp_path, "a.json", "latin", "--v", "12")[1]
    assert again.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("v", list(range(8, 22)))
def test_latin_dispatcher_counts(tmp_path, v):
    code, out = construct(tmp_path, f"v{v}.json", "latin", "--v", str(v))
    assert code == 0
    p = load_packing(out)
    assert p.n_blocks == (v // 2) * ((v + 1) // 2) // 2
    assert verify(p).passed
    if v % 4 == 2:
        # Off-by-two split: the even-side rectangle does not exist here.
        assert p.labeling.p_plus == v // 2 + 1


def test_latin_dispatch_digest():
    # Every triple the dispatcher writes for 8 <= v <= 64, pinned as one
    # digest before its four branches became two routes.
    digest = hashlib.sha256()
    for v in range(8, 65):
        digest.update(core.to_json(cli.latin_dispatch(v)).encode())
    assert digest.hexdigest() == (
        "3b2e226523fb22744aa65deeac7b718f54f8b4716e57732dcef727196b87dda8")


def test_latin_small_v_is_usage_error(tmp_path, capsys):
    code, _ = construct(tmp_path, "x.json", "latin", "--v", "7")
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_construct_sum_fixture(tmp_path):
    code, out = construct(tmp_path, "s.json", "sum", "--v", "12", "--k", "3")
    assert code == 0
    assert load_packing(out).n_blocks == 15
    assert main(["verify", str(out)]) == 0


def test_construct_sum_odd_ground_set(tmp_path):
    code, _ = construct(tmp_path, "s.json", "sum", "--v", "11", "--k", "3")
    assert code == 2


def test_construct_babai_frankl(tmp_path):
    code, out = construct(
        tmp_path, "bf.json", "babai-frankl", "--q", "5", "--k", "3", "--t", "2"
    )
    assert code == 0
    p = load_packing(out)
    assert (p.v, p.t, p.k, p.n_blocks) == (15, 2, 3, 25)


def test_construct_td(tmp_path):
    code, out = construct(
        tmp_path, "td.json", "td", "--t", "2", "--k", "3", "--q", "3"
    )
    assert code == 0
    p = load_packing(out)
    assert (p.v, p.t, p.k, p.n_blocks) == (9, 2, 3, 9)
    assert verify(p).passed


@pytest.mark.parametrize("argv", [
    ("td", "--t", "1", "--k", "1", "--q", "1000000000039"),  # a 13-digit prime
    ("td", "--t", "2", "--k", "3", "--q", "131072"),  # 2^17
    ("babai-frankl", "--q", "131072", "--k", "3", "--t", "2"),
])
def test_construct_oversized_q_is_usage_error(tmp_path, capsys, argv):
    start = time.perf_counter()
    code, out = construct(tmp_path, "x.json", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds the field size cap 65536" in err
    assert not out.exists()


def test_construct_td_augment(tmp_path):
    code, out = construct(tmp_path, "a.json", "td-augment34", "--v", "16")
    assert code == 0
    assert load_packing(out).n_blocks == 112
    code, out = construct(
        tmp_path, "c.json", "td-augment34", "--v", "16", "--char2"
    )
    assert code == 0
    assert load_packing(out).n_blocks == 112
    assert construct(tmp_path, "x.json", "td-augment34", "--v", "14")[0] == 2


def test_construct_factorization(tmp_path):
    code, out = construct(
        tmp_path, "f.json", "factorization", "--p-plus", "6", "--p-minus", "3"
    )
    assert code == 0
    p = load_packing(out)
    assert (p.v, p.n_blocks) == (9, 9)
    assert construct(
        tmp_path, "g.json", "factorization", "--p-plus", "5", "--p-minus", "4"
    )[0] == 2


def test_construct_product(tmp_path):
    code, out = construct(
        tmp_path, "p.json", "product",
        "--first", "onefact:4", "--second", "singletons:3",
    )
    assert code == 0
    p = load_packing(out)
    assert (p.v, p.t, p.k, p.n_blocks) == (7, 2, 3, 6)


def test_construct_product_class_mismatch(tmp_path):
    args = ["product", "--first", "onefact:8", "--second", "singletons:3"]
    assert construct(tmp_path, "p.json", *args)[0] == 2
    assert construct(tmp_path, "p.json", *args, "--allow-prefix")[0] == 0


def test_construct_product_bad_source(tmp_path):
    assert construct(
        tmp_path, "p.json", "product", "--first", "magic:4",
        "--second", "singletons:3",
    )[0] == 2
    assert construct(
        tmp_path, "p.json", "product", "--first", "onefact:x",
        "--second", "singletons:3",
    )[0] == 2


def test_construct_product_non_integer_source_is_unknown_source(tmp_path, capsys):
    code, out = construct(
        tmp_path, "p.json", "product", "--first", "onefact:x",
        "--second", "singletons:3",
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown source 'onefact:x'")
    assert not out.exists()


def test_construct_mds_has_no_p_minus_option(tmp_path):
    # mds_45_product accepts only p_minus = v - 1, so the route passes it
    code, out = construct(
        tmp_path, "m.json", "mds", "--source", "lts:9", "--variant", "45",
        "--p-minus", "8",
    )
    assert code == 2
    assert not out.exists()


def test_mds_pipeline_with_large_set(tmp_path, capsys):
    ls = tmp_path / "large.json"
    code, out = construct(
        tmp_path, "mds.json", "mds", "--source", "lts:9",
        "--write-large-set", str(ls),
    )
    assert code == 0
    p = load_packing(out)
    assert (p.v, p.t, p.k, p.n_blocks) == (18, 5, 6, 1008)

    capsys.readouterr()
    assert main(["verify", str(ls)]) == 0
    text = capsys.readouterr().out
    assert "classes: 7" in text

    code, out45 = construct(
        tmp_path, "mds45.json", "mds", "--source", f"file:{ls}",
        "--variant", "45",
    )
    assert code == 0
    q = load_packing(out45)
    assert (q.v, q.t, q.k, q.n_blocks) == (17, 4, 5, 336)


def test_verify_passes_then_catches_corruption(tmp_path, capsys):
    _, out = construct(tmp_path, "v8.json", "latin", "--v", "8")
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()

    doc = json.loads(out.read_text())
    b0 = doc["blocks"][0]
    signs = doc["labels"]
    extra = None
    for z in range(8):
        cand = sorted({b0[0], b0[1], z})
        if len(cand) == 3 and cand not in doc["blocks"]:
            if sum(1 if signs[x] == "+" else -1 for x in cand) in (-1, 0, 1):
                extra = cand
                break
    assert extra is not None
    doc["blocks"] = sorted(doc["blocks"] + [extra])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 3
    assert "packing: False" in capsys.readouterr().out


def test_verify_catches_unbalanced_labels(tmp_path, capsys):
    _, out = construct(tmp_path, "v8.json", "latin", "--v", "8")
    doc = json.loads(out.read_text())
    flipped = "-" + doc["labels"][1:]
    doc["labels"] = flipped
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 3
    assert "balanced: False" in capsys.readouterr().out


def test_verify_unreadable_and_malformed(tmp_path):
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    junk = tmp_path / "junk.json"
    junk.write_text("{ not json")
    assert main(["verify", str(junk)]) == 3


@pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
def test_verify_rejects_a_version_that_only_equals_one(tmp_path, capsys, version):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_document(version=version)))
    assert main(["verify", str(bad)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("FAIL: ") and "unsupported version" in line


@pytest.mark.parametrize("content", [b"\xff", b"[" * 200_000], ids=["0xff", "nested"])
def test_verify_and_derive_reject_undecodable_files(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["verify", str(bad)]) == 3
    out = tmp_path / "out.json"
    assert main(["derive", str(bad), "0", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err.count("FAIL: ") == 2
    assert not out.exists()


def _document(**fields):
    doc = {"version": 1, "v": 4, "t": 2, "k": 2, "labels": "++--",
           "blocks": [[0, 2], [1, 3]]}
    doc.update(fields)
    return doc


@pytest.mark.parametrize("doc,names", [
    (_document(blocks=[[0, 2], json.loads("[" * 900 + "]" * 900)]), "block 1"),
    (_document(version=[0] * 2000), "version"),
    (_document(blocks=[[0, 2], list(range(1, 3000))]), "block 1"),
    (_document(v=3001, t=1, labels="+" * 1501 + "-" * 1500,
               blocks=[[0, 1], list(range(1, 3000))], classes=[[0], [1]]),
     "class 1 block 0"),
    # one fault each, from the parser's shape check or from BalancedPacking
    (_document(blocks={"0": [0, 2]}), "blocks must be a list"),
    (_document(classes=[[0, 1], [1]]), "block 1 appears in more than one class"),
    (_document(v=4.0), "parameters v, t and k must be integers"),
    (_document(v=10 ** 80), "labeling covers 4 points, ground set has 1000"),
    (_document(labels="++-"), "labeling covers 3 points, ground set has 4"),
    (_document(version=True), "unsupported version True"),
], ids=["nested-block", "long-version", "long-block", "long-class-block", "blocks-not-list",
        "class-repeats", "v-float", "v-huge", "labels-short", "version-bool"])
def test_format_errors_print_a_short_line(tmp_path, capsys, doc, names):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("FAIL: ") and names in line
    assert len(line) < 200


def test_verify_reads_a_class_document_once(tmp_path, capsys, monkeypatch):
    ls = tmp_path / "large.json"
    factorization.save_large_set(factorization.large_set_sts(9), ls)
    reads, load = [], core.load_document

    def counted(path):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(cli, "load_document", counted)
    monkeypatch.setattr(core, "load_document", counted)
    monkeypatch.setattr(factorization, "load_document", counted)
    assert main(["verify", str(ls)]) == 0
    assert reads == [str(ls)]
    assert capsys.readouterr().out.splitlines() == [
        "classes: 7", "blocks: 84", "per-class strength: 2", "result: PASS",
    ]


def test_bound_output(capsys):
    assert main(["bound", "2", "3", "9"]) == 0
    assert capsys.readouterr().out.strip() == "10"
    # p- = v - p+ = 3
    assert main(["bound", "2", "3", "9", "--p-plus", "6"]) == 0
    assert capsys.readouterr().out.strip() == "9"


def test_bound_usage_errors(capsys):
    # p+ lies in [Lemma 1's least p+, v]: p- is v - p+
    assert main(["bound", "2", "3", "9", "--p-plus", "10"]) == 2
    assert capsys.readouterr() == ("", "error: need 4 <= --p-plus <= 9 for t=2, got 10\n")
    assert main(["bound", "2", "3", "9", "--p-plus", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: need 4 <= --p-plus <= 9 for t=2, got -1\n")
    assert main(["bound", "5", "6", "9", "--p-plus", "5"]) == 2
    assert capsys.readouterr() == ("", "error: need 6 <= --p-plus <= 9 for t=5, got 5\n")
    # the errors about t and k keep their text, and come first
    assert main(["bound", "3", "3", "9", "--p-plus", "1"]) == 2
    assert capsys.readouterr() == ("", "error: need 1 <= t < k, got t=3, k=3\n")
    # p- is v - p+, never an option
    assert main(["bound", "2", "3", "9", "--p-plus", "6", "--p-minus", "3"]) == 2
    assert "unrecognized arguments: --p-minus 3" in capsys.readouterr().err
    assert main(["bound", "3", "3", "9"]) == 2


def test_compare_output(capsys):
    assert main(["compare", "2", "3", "9"]) == 0
    assert capsys.readouterr().out.strip() == "10 < 12"
    # odd t and odd k: the sign-type bound, not the corollary's 4 >= 7/2
    assert main(["compare", "3", "5", "7"]) == 0
    assert capsys.readouterr().out.strip() == "3 < 7/2"


def test_compare_precondition():
    assert main(["compare", "2", "3", "3"]) == 2


def test_oracle_exact_with_witness_and_log(tmp_path, capsys):
    out = tmp_path / "w.json"
    log = tmp_path / "search.log"
    code = main([
        "oracle", "2", "3", "8", "--out", str(out), "--log", str(log),
    ])
    assert code == 0
    assert "A(2,3,8) = 8 [exact]" in capsys.readouterr().out
    p = load_packing(out)
    assert p.n_blocks == 8
    records = [json.loads(ln) for ln in log.read_text().splitlines() if ln]
    assert records
    assert all({"nodes", "incumbent", "bound"} <= r.keys() for r in records)
    assert main(["verify", str(out)]) == 0


def test_oracle_budget_exit_code(tmp_path):
    assert main(["oracle", "2", "3", "10", "--budget-nodes", "50"]) == 4


def test_oracle_baseline(capsys):
    code = main([
        "oracle", "2", "5", "100", "--baseline", "--trials", "300", "--seed", "1",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "reference (v*t/k^2)^t = 64" in text


def test_oracle_baseline_requires_seed():
    assert main(["oracle", "2", "5", "100", "--baseline", "--trials", "10"]) == 2


def test_derive_roundtrip(tmp_path):
    _, src = construct(tmp_path, "src.json", "td-augment34", "--v", "16")
    out = tmp_path / "derived.json"
    assert main(["derive", str(src), "0", "8", "--out", str(out)]) == 0
    p = load_packing(out)
    assert (p.v, p.t, p.k) == (14, 1, 2)
    assert main(["verify", str(out)]) == 0
    # e2 must come from the negative side.
    assert main(["derive", str(src), "0", "1", "--out", str(out)]) == 2


@pytest.mark.parametrize("argv", [
    ["construct", "latin", "--v", "8", "--out", "{missing}/x.json"],
    ["oracle", "2", "3", "6", "--out", "{missing}/x.json"],
    ["derive", "{src}", "0", "8", "--out", "{missing}/x.json"],
    ["oracle", "2", "3", "6", "--log", "{missing}/x.log"],
    ["construct", "mds", "--source", "lts:9",
     "--write-large-set", "{missing}/ls.json", "--out", "{tmp}/x.json"],
    ["oracle", "2", "3", "6", "--budget-nodes", "0"],
    ["oracle", "2", "3", "8", "--time-cap", "nan"],
    ["oracle", "0", "3", "6"],
    ["oracle", "2", "3", "10", "--baseline", "--trials", "5", "--seed", "1"],
    ["oracle", "2", "0", "4", "--baseline", "--trials", "5", "--seed", "1"],
    ["oracle", "2", "3", "-3", "--baseline", "--trials", "5", "--seed", "1"],
    ["oracle", "2", "-2", "4", "--baseline", "--trials", "5", "--seed", "1"],
    ["oracle", "-1", "5", "100", "--baseline", "--trials", "5", "--seed", "1"],
    ["oracle", "2", "5", "100", "--baseline", "--trials", "-1", "--seed", "1"],
    ["derive", "{src}", "0", "99", "--out", "{tmp}/x.json"],
    ["derive", "{missing}/src.json", "0", "8", "--out", "{tmp}/x.json"],
    ["construct", "product", "--first", "file:{missing}.json",
     "--second", "singletons:3", "--out", "{tmp}/x.json"],
    ["bound", "3", "3", "9"],
    ["construct", "sum", "--v", "0", "--k", "3", "--out", "{tmp}/x.json"],
    ["construct", "sum", "--v", "4", "--k", "9", "--out", "{tmp}/x.json"],
], ids=[
    "construct-out", "oracle-out", "derive-out", "oracle-log",
    "mds-write-large-set", "budget-nodes-0", "time-cap-nan", "oracle-t0",
    "baseline-indivisible", "baseline-k0", "baseline-v-negative", "baseline-k-negative",
    "baseline-t-negative", "baseline-trials-negative",
    "derive-out-of-range", "derive-missing-file", "product-missing-file",
    "bound-t-equals-k", "sum-v0", "sum-k-above-v",
])
def test_parameter_and_io_errors_exit_2(tmp_path, capsys, argv):
    src = tmp_path / "src.json"
    assert construct(tmp_path, "src.json", "td-augment34", "--v", "16")[0] == 0
    capsys.readouterr()
    paths = {"tmp": tmp_path, "src": src, "missing": tmp_path / "missing"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("bound", "2", "3", "9"), ("oracle", "2", "3", "8"),
    ("--help",), ("construct", "--help"), ("bound", "--help"),
], ids=["bound", "oracle", "help", "construct-help", "bound-help"])
def test_a_closed_stdout_pipe_exits_141_silently(argv, unbuffered):
    # The reader of stdout has gone before the job or the help writes: not
    # a usage error, so neither exit 2 with "error: [Errno 32] Broken pipe"
    # nor the interpreter's "Exception ignored" at its last flush (exit
    # 120), nor exit 0 where argparse drops the failed write, but 128 + SIGPIPE.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "balpack.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write)
    assert "error:" not in done.stderr and "Exception ignored" not in done.stderr
    assert (done.returncode, done.stderr) == (141, "")


def test_an_out_fifo_whose_reader_has_gone_is_an_io_error(tmp_path):
    # Only stdout's vanished reader exits 141: a broken --out is an I/O
    # error like any other, and stdout stays a working stream.  The FIFO's
    # buffer is one page, so the job's 22 KB document blocks in the write
    # until the reader closes, whatever the timing.
    fcntl = pytest.importorskip("fcntl")
    select = pytest.importorskip("select")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    fifo = tmp_path / "out.json"
    os.mkfifo(fifo)
    read = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        fcntl.fcntl(read, fcntl.F_SETPIPE_SZ, 4096)
        job = subprocess.Popen(
            [sys.executable, "-m", "balpack.cli", "construct", "mds", "--source", "lts:9",
             "--out", str(fifo)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        assert select.select([read], [], [], 60)[0], "the job wrote nothing to the FIFO"
    finally:
        os.close(read)
    out, err = job.communicate(timeout=60)
    assert (job.returncode, out, err) == (2, "", "error: [Errno 32] Broken pipe\n")


def test_a_broken_pipe_off_stdout_is_an_io_error_in_process(tmp_path, capsys, monkeypatch):
    # Called in process with stdout captured (no file descriptor), a broken
    # pipe while writing the packing is reported, and stdout left alone.
    def broken(packing, path):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "save_packing", broken)
    assert construct(tmp_path, "x.json", "latin", "--v", "8")[0] == 2
    assert capsys.readouterr() == ("", "error: [Errno 32] Broken pipe\n")


HELP_ARGVS = [
    ["--help"],
    ["construct", "--help"],
    *(["construct", route, "--help"] for route in (
        "babai-frankl", "td", "td-augment34", "latin", "factorization", "sum",
        "product", "mds")),
    *([command, "--help"] for command in ("verify", "bound", "compare", "oracle", "derive")),
]
USAGE_ERROR_ARGVS = [
    [],
    ["construct", "nonsense"],
    ["construct", "latin", "--v", "8"],
    ["construct", "mds", "--source", "lts:9", "--variant", "x", "--out", "x.json"],
    ["bound", "2", "3", "9", "--bogus"],
    # argparse takes the first positional token as the command (route), and
    # the parser declares the arguments of the first token naming one: the
    # two must agree, also where a token after it names another.
    ["--", "verify", "x.json"],
    ["construct", "--", "latin", "--v", "8", "--out", "x.json"],
    ["derive", "verify", "0", "1"],
    # inside [0, v] but below Lemma 1's floor: named as the option, not as
    # lemma1_bound's p_plus
    ["bound", "2", "3", "9", "--p-plus", "1"],
]


def pinned_cli_text():
    """``tests/cli_text.txt`` as {argv line: text}: each ``$ balpack ...``
    line starts a case, and the lines up to the next one are its text."""
    cases, key = {}, None
    path = Path(__file__).with_name("cli_text.txt")
    for line in path.read_text(encoding="ascii").splitlines(keepends=True):
        if line.startswith("$ balpack"):
            key = line[2:].rstrip("\n")
            cases[key] = ""
        elif key is not None:
            cases[key] += line
    return cases


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the pinned text is Python 3.11's argparse wording")
def test_help_and_usage_errors_are_pinned(monkeypatch, capsys):
    # Byte for byte, so that building the parsers differently (only the
    # chosen subcommand's, say) cannot change what a user reads.
    monkeypatch.setenv("COLUMNS", "80")
    pinned = pinned_cli_text()
    seen = []
    for argv, code in [(a, 0) for a in HELP_ARGVS] + [(a, 2) for a in USAGE_ERROR_ARGVS]:
        key = shlex.join(["balpack", *argv])
        seen.append(key)
        assert main(argv) == code, key
        out, err = capsys.readouterr()
        assert (out, err) == ((pinned[key], "") if code == 0 else ("", pinned[key])), key
    assert seen == list(pinned)


def readme_commands():
    """Each ``balpack ...`` line of README's "Command line" code block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("balpack ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_no_arguments_is_usage_error():
    assert main([]) == 2
    assert main(["construct"]) == 2
    assert main(["construct", "nonsense"]) == 2


# Prints, as JSON, the modules that ``import balpack.cli`` adds to a fresh
# interpreter, and whether each layer module is loaded afterwards.
STARTUP_PROBE = """
import json, sys
before = set(sys.modules)
import balpack.cli
layers = ("cli", "core", "bounds", "gf", "latin", "factorization",
          "transversal", "babai_frankl", "sumcode", "oracle")
print(json.dumps({
    "added": sorted(set(sys.modules) - before),
    "missing": [name for name in layers if f"balpack.{name}" not in sys.modules],
}))
"""


def test_cli_import_loads_every_layer_and_no_dataclasses():
    # Every layer is registered; route layers load on first use.  The traced
    # benchmark launcher wraps them all right after this import.  dataclasses
    # (and the inspect it pulls in) would cost every CLI job start-up time.
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    probe = json.loads(done.stdout)
    assert probe["missing"] == []
    assert "balpack.cli" in probe["added"]
    assert not {"dataclasses", "inspect"} & set(probe["added"])


# One public function of each layer.
LAYER_FUNCTIONS = {
    "cli": "main", "core": "verify", "bounds": "lemma1_bound", "gf": "make_field",
    "latin": "fill", "factorization": "triples_from_factorization",
    "transversal": "construct_td", "babai_frankl": "construct",
    "sumcode": "construct", "oracle": "max_balanced_packing",
}


def run_fresh(source, *args):
    """Run ``source`` in a fresh interpreter on src/; return its last stdout line."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", source, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_layers_stay_package_attributes_after_cli_import():
    # A lazily registered layer must also be set on the package, or
    # ``import balpack.oracle; balpack.oracle.f`` raises AttributeError.  A
    # layer imported before the CLI must stay the module its importer holds.
    source = ("import sys\nfrom balpack import transversal as first\n"
              "import balpack.cli\n"
              "assert sys.modules['balpack.transversal'] is first\n") + "".join(
        f"import balpack.{layer}\n"
        f"balpack.{layer}.{function}\n"
        f"from balpack import {layer}\n"
        f"assert {layer} is sys.modules['balpack.{layer}']\n"
        for layer, function in LAYER_FUNCTIONS.items()
    ) + "print('ok')"
    assert run_fresh(source) == "ok"


# Loads every layer under ``python -S`` (no site hooks), prints whether that
# imported ``typing``, then the public names of the layers in argv[2] whose
# annotations do not resolve.
TYPING_PROBE = """
import json, sys
for name, function in json.loads(sys.argv[1]).items():
    getattr(__import__(f"balpack.{name}", fromlist=["_"]), function)
loaded = "typing" in sys.modules
import typing
unresolved = []
for name in json.loads(sys.argv[2]):
    module = sys.modules[f"balpack.{name}"]
    for attr, obj in vars(module).items():
        if not attr.startswith("_") and getattr(obj, "__module__", None) == module.__name__:
            try:
                typing.get_type_hints(obj)
            except NameError:
                unresolved.append(f"{name}.{attr}")
print(json.dumps({"typing": loaded, "unresolved": unresolved}))
"""


def test_no_layer_imports_typing_and_every_annotation_resolves():
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-S", "-c", TYPING_PROBE, json.dumps(LAYER_FUNCTIONS),
         json.dumps(["bounds", "oracle", "sumcode"])],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"typing": False, "unresolved": []}


# Runs ``cli.main`` on its arguments, then prints which lazily registered
# layers have run their module body, and whether ``fractions`` and ``json``
# were imported.  ``type`` reads a lazy module without loading it.
LAZY_PROBE = """
import sys, types
from balpack import cli
code = cli.main(sys.argv[1:])
layers = ("babai_frankl", "bounds", "factorization", "gf", "latin", "oracle",
          "sumcode", "transversal")
ran = [name for name in layers if type(sys.modules[f"balpack.{name}"]) is types.ModuleType]
loaded = {name: name in sys.modules for name in ("fractions", "json")}
import hashlib
import json
print(json.dumps({"code": code, "ran": ran, **loaded}))
"""


@pytest.mark.parametrize("argv, ran, fractions, json_", [
    (["verify", "{family}"], ["bounds"], False, True),
    (["construct", "latin", "--v", "120", "--out", "{tmp}/l.json"],
     ["bounds", "latin"], False, True),
    # transversal imports gf, but the sum design never touches it
    (["construct", "td-augment34", "--v", "16", "--out", "{tmp}/a.json"],
     ["bounds", "factorization", "transversal"], False, True),
    # an exact search without --out neither bounds nor writes a family
    (["oracle", "2", "3", "8"], ["oracle"], False, False),
    # the reference (v*t/k^2)^t is a Fraction
    (["oracle", "2", "5", "100", "--baseline", "--trials", "300", "--seed", "1"],
     ["oracle"], True, False),
    # the polynomial TD route builds no one-factorization
    (["construct", "td", "--t", "2", "--k", "3", "--q", "3", "--out", "{tmp}/t.json"],
     ["bounds", "gf", "transversal"], False, True),
    # the char2 route pairs its sum classes through factorization.product
    (["construct", "td-augment34", "--char2", "--v", "16", "--out", "{tmp}/c.json"],
     ["bounds", "factorization", "transversal"], False, True),
    # prints the Steiner size 7/2, a Fraction
    (["compare", "3", "5", "7"], ["bounds"], True, False),
], ids=["verify", "construct-latin", "construct-td-augment34", "oracle", "oracle-baseline",
        "construct-td", "construct-td-augment34-char2", "compare"])
def test_a_job_runs_only_the_route_layers_it_uses(tmp_path, argv, ran, fractions, json_):
    family = construct(tmp_path, "f.json", "latin", "--v", "12")[1]
    probe = json.loads(run_fresh(
        LAZY_PROBE, *[arg.format(tmp=tmp_path, family=family) for arg in argv]))
    assert probe == {"code": 0, "ran": ran, "fractions": fractions, "json": json_}


# A bare ``import balpack`` leaves ``balpack.bounds`` unexecuted; its names
# load it on first use and are the objects it holds.
PACKAGE_PROBE = """
import sys, types
import balpack
lazy = type(sys.modules.get("balpack.bounds")) is not types.ModuleType
from fractions import Fraction
assert balpack.theorem1_gap(3, 5, 7) == (3, Fraction(7, 2), True)
from balpack import corollary_bound, GapResult
bounds = sys.modules["balpack.bounds"]
assert balpack.bounds is bounds
assert corollary_bound is bounds.corollary_bound and GapResult is bounds.GapResult
assert all(getattr(balpack, name) is getattr(bounds, name) for name in (
    "GapResult", "SteinerSize", "corollary_bound", "lemma1_bound", "steiner_size",
    "theorem1_gap", "type_lp_bound"))
assert set(balpack.__all__) <= set(dir(balpack))
print(lazy)
"""


def test_package_loads_bounds_on_first_use():
    assert run_fresh(PACKAGE_PROBE) == "True"


# A bare ``import balpack`` registers every layer above core without running
# it: prints the layers in sys.modules, those that ran, those that are the
# package attribute of their name, and whether core holds the registered bounds.
REGISTRY_PROBE = """
import json, sys, types
import balpack
layers = ("babai_frankl", "bounds", "factorization", "gf", "latin", "oracle",
          "sumcode", "transversal")
modules = {name: sys.modules.get(f"balpack.{name}") for name in layers}
print(json.dumps({
    "registered": [name for name, module in modules.items() if module is not None],
    "ran": [name for name, module in modules.items() if type(module) is types.ModuleType],
    "attributes": [name for name, module in modules.items()
                   if module is not None and vars(balpack).get(name) is module],
    "core_bounds": vars(balpack.core).get("bounds", False) is modules["bounds"],
}))
"""


def test_package_registers_every_layer_unexecuted():
    layers = ["babai_frankl", "bounds", "factorization", "gf", "latin", "oracle",
              "sumcode", "transversal"]
    assert json.loads(run_fresh(REGISTRY_PROBE)) == {
        "registered": layers, "ran": [], "attributes": layers, "core_bounds": True}


# What the traced benchmark launcher relies on: after ``import balpack.cli``
# every layer's namespace is in sys.modules and holds its public functions,
# and a function replaced there is the one a job calls.
TRACER_PROBE = """
import json, sys
import balpack.cli
public = {}
for name in json.loads(sys.argv[1]):
    module = sys.modules[f"balpack.{name}"]
    public[name] = [attr for attr, obj in vars(module).items()
                    if callable(obj) and getattr(obj, "__module__", None) == module.__name__]
oracle = sys.modules["balpack.oracle"]
calls = []
real = oracle.max_balanced_packing
def replacement(*args, **kwargs):
    calls.append(args[:3])
    return real(*args, **kwargs)
setattr(oracle, "max_balanced_packing", replacement)
code = balpack.cli.main(["oracle", "2", "3", "8"])
print(json.dumps({"public": public, "calls": calls, "code": code}))
"""


def test_layer_namespaces_can_be_wrapped_after_cli_import():
    probe = json.loads(run_fresh(TRACER_PROBE, json.dumps(list(LAYER_FUNCTIONS))))
    for layer, function in LAYER_FUNCTIONS.items():
        assert function in probe["public"][layer], layer
    assert probe["calls"] == [[2, 3, 8]]
    assert probe["code"] == 0


# Prints what this interpreter lacks to build a wheel offline, or nothing.
# It runs in a fresh interpreter, so that importing setuptools changes
# nothing in the test process.  pip is looked up last: its lookup turns off
# the setuptools distutils shim, and setuptools then fails to import.
WHEEL_TOOLING_PROBE = """
from importlib.util import find_spec
if find_spec("setuptools") is None:
    print("setuptools")
elif find_spec("wheel") is None and find_spec("setuptools.command.bdist_wheel") is None:
    print("wheel (setuptools < 70.1 has no bdist_wheel of its own)")
elif find_spec("pip") is None:
    print("pip")
"""


def test_installed_entry_point_runs(tmp_path):
    missing = subprocess.run(
        [sys.executable, "-c", WHEEL_TOOLING_PROBE],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    if missing:
        pytest.skip(f"cannot build a wheel offline: no {missing}")
    # Install this checkout, offline, into tmp_path and run that install's
    # console script.  The build works on a copy, because setuptools writes
    # build/ and *.egg-info beside the sources it builds.
    root = Path(__file__).resolve().parents[1]
    checkout = tmp_path / "checkout"
    shutil.copytree(
        root / "src",
        checkout / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    shutil.copy(root / "pyproject.toml", checkout)
    site = tmp_path / "site"
    build = subprocess.run(
        [
            sys.executable, "-m", "pip", "install",
            "--no-index", "--no-deps", "--no-build-isolation",
            "--no-cache-dir", "--disable-pip-version-check",
            "--target", str(site), str(checkout),
        ],
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, build.stderr
    done = subprocess.run(
        [str(site / "bin" / "balpack"), "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(site)},
    )
    assert done.returncode == 0
    assert "construct" in done.stdout


@pytest.mark.parametrize("argv, code", [
    (["bound", "100000", "100001", "100000000000"], 2),
    (["bound", "1000000", "1000001", "1000000000000"], 2),
    (["compare", "1000", "1001", "100000000"], 2),
    (["oracle", "2000", "5", "100", "--baseline", "--trials", "1", "--seed", "1"], 2),
    (["verify", "{wide}"], 0),
], ids=["bound", "bound-slow", "compare", "baseline-reference", "verify-wide"])
def test_values_past_the_bit_budget_exit_with_their_code(tmp_path, argv, code):
    # Each value here has more than 4 300 digits, Python's limit on printing
    # an int, and once ended in a ValueError traceback (bound-slow ran past
    # 60 s in comb first).  Now each is refused before it is computed: a
    # parameter error, or in verify no counting-bound line.  The wide file
    # is one valid block of 3 001 points over 60 000, whose counting bound
    # at t = 3 000 has about 5 200 digits.
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    v, half = 60_000, 30_000
    block = tuple(range(1501)) + tuple(range(half, half + 1500))
    wide = tmp_path / "wide.json"
    core.save_packing(core.BalancedPacking(
        v, 3000, 3001, core.Labeling((1,) * half + (-1,) * half), (block,)), wide)
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-m", "balpack.cli",
                           *(a.format(wide=wide) for a in argv)],
                          capture_output=True, text=True, env=env, timeout=30,
                          preexec_fn=limit)
    assert "Traceback" not in done.stderr and "Error" not in done.stderr
    assert done.returncode == code, done.stderr
    if code == 2:
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    else:
        assert "counting bound" not in done.stdout and "result: PASS" in done.stdout


@pytest.mark.parametrize("argv", [
    ["latin", "--v", "1000000000"],
    ["sum", "--v", "1000000000", "--k", "4"],
    ["td-augment34", "--v", "1000000000"],
    ["td-augment34", "--char2", "--v", str(2**30)],
    ["factorization", "--p-plus", "1000000000", "--p-minus", "1"],
    ["product", "--first", "onefact:1000000000", "--second", "singletons:3"],
    ["mds", "--source", "onefact:100000"],
    ["td", "--t", "3", "--k", "5", "--q", "65521"],
    ["babai-frankl", "--q", "65521", "--k", "5", "--t", "3"],
    ["product", "--first", "singletons:3", "--second", "singletons:1000000000",
     "--allow-prefix"],
    ["td", "--t", "1", "--k", "65536", "--q", "65536"],
    ["sum", "--v", str(2**21), "--k", str(2**21)],
], ids=["latin", "sum", "td-augment34", "td-augment34-char2", "factorization",
        "product-onefact", "mds-onefact", "td", "babai-frankl", "product-singletons",
        "td-wide", "sum-wide"])
def test_routes_past_the_incidence_cap_exit_2(tmp_path, argv):
    # The first seven ended in a MemoryError traceback under a 1.5 GB address
    # limit, and the next three ran past 10 s.  The last two build few
    # blocks, 2^16 and 2^20, but of 2^16 and 2^21 points each, which is why
    # the rule counts points in blocks, not blocks.  Now each route counts
    # them from its parameters and refuses, before it allocates anything.
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-m", "balpack.cli", "construct", *argv,
                           "--out", str(tmp_path / "x.json")],
                          capture_output=True, text=True, env=env, timeout=5,
                          preexec_fn=limit)
    assert "Traceback" not in done.stderr
    assert done.returncode == 2, done.stderr
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: ") and line.endswith(
        f"would give blocks holding over {core.INCIDENCE_CAP} points in all")
    assert not (tmp_path / "x.json").exists()
