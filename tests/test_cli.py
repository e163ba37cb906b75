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
], ids=["nested-block", "long-version", "long-block", "long-class-block"])
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
    assert main(["bound", "2", "3", "9", "--p-plus", "6", "--p-minus", "3"]) == 0
    assert capsys.readouterr().out.strip() == "9"


def test_bound_usage_errors():
    assert main(["bound", "2", "3", "9", "--p-plus", "6"]) == 2
    assert main(["bound", "2", "3", "9", "--p-plus", "6", "--p-minus", "4"]) == 2
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
    assert main(["oracle", "2", "3", "9", "--budget-nodes", "50"]) == 4


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
    ["oracle", "0", "3", "6"],
    ["oracle", "2", "3", "10", "--baseline", "--trials", "5", "--seed", "1"],
    ["derive", "{src}", "0", "99", "--out", "{tmp}/x.json"],
    ["derive", "{missing}/src.json", "0", "8", "--out", "{tmp}/x.json"],
    ["construct", "product", "--first", "file:{missing}.json",
     "--second", "singletons:3", "--out", "{tmp}/x.json"],
    ["bound", "3", "3", "9"],
], ids=[
    "construct-out", "oracle-out", "derive-out", "oracle-log",
    "mds-write-large-set", "budget-nodes-0", "oracle-t0", "baseline-indivisible",
    "derive-out-of-range", "derive-missing-file", "product-missing-file",
    "bound-t-equals-k",
])
def test_parameter_and_io_errors_exit_2(tmp_path, capsys, argv):
    src = tmp_path / "src.json"
    assert construct(tmp_path, "src.json", "td-augment34", "--v", "16")[0] == 0
    capsys.readouterr()
    paths = {"tmp": tmp_path, "src": src, "missing": tmp_path / "missing"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


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
    # Every layer is imported eagerly: the traced benchmark launcher wraps
    # them all right after this import.  dataclasses (and the inspect it
    # pulls in) would cost every CLI job start-up time.
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
