"""Job lists of the CLI workloads and the check applied to each job.

A job is one ``balpack`` command line run in its own process.  The seed
chooses the job order, the point permutations and corruptions of the
copies that ``verify`` reads, and the ``--baseline --seed``; the commands
and sizes are fixed, so every seed does the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from typing import Callable, NamedTuple, Optional

import families
import reference


class Job(NamedTuple):
    name: str
    phase: str  # "construct" (construct and derive), "verify" or "oracle"
    argv: list
    check: Callable  # (returncode, stdout, stderr, workdir) -> error or None
    prepare: Optional[Callable] = None  # untimed; writes the job's input
    log: Optional[str] = None  # oracle search log requested in traced runs


# (output file, construct arguments); together they take all four latin
# dispatcher routes, the bf/td/char2 field routes, sum and mds.
CERTIFY_FAMILIES = (
    ("latin-120.json", ["latin", "--v", "120"]),
    ("latin-121.json", ["latin", "--v", "121"]),
    ("latin-122.json", ["latin", "--v", "122"]),
    ("latin-123.json", ["latin", "--v", "123"]),
    ("augment34-48.json", ["td-augment34", "--v", "48"]),
    ("augment34-char2-32.json", ["td-augment34", "--char2", "--v", "32"]),
    ("babai-frankl-13-5-3.json", ["babai-frankl", "--q", "13", "--k", "5", "--t", "3"]),
    ("td-3-5-11.json", ["td", "--t", "3", "--k", "5", "--q", "11"]),
    ("sum-24-5.json", ["sum", "--v", "24", "--k", "5"]),
    ("mds-lts9.json", ["mds", "--source", "lts:9", "--write-large-set", "L.json"]),
)

# (t, k, v) run to exactness; (2,3,10) takes ~32 s and is left out.
ORACLE_INSTANCES = ((2, 3, 9), (3, 4, 9), (3, 5, 10), (4, 5, 9), (2, 4, 12), (4, 6, 11))
BASELINE = (100, 5, 2, 3000)  # v, k, t, trials

_ORACLE_LINE = re.compile(r"A\((\d+),(\d+),(\d+)\) = (\d+) \[(\w+)\] nodes=(\d+)")
_RETAINED_LINE = re.compile(r"retained (\d+) structured sets over (\d+) trials")


def _read(workdir, name) -> bytes:
    with open(os.path.join(workdir, name), "rb") as fh:
        return fh.read()


def _check_construct(*names):
    """Exit 0, and each output file has the reference block count and bytes."""

    def check(rc, out, err, workdir):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        for name in names:
            blocks, digest = reference.CONSTRUCT_OUTPUTS[name]
            data = _read(workdir, name)
            got = len(json.loads(data)["blocks"])
            if got != blocks:
                return f"{name}: {got} blocks, expected {blocks}"
            if hashlib.sha256(data).hexdigest() != digest:
                return f"{name}: bytes differ from the reference"
        return None

    return check


def _check_pass(blocks):
    def check(rc, out, err, workdir):
        lines = out.splitlines()
        if rc != 0 or not lines or lines[-1] != "result: PASS":
            return f"expected PASS, got exit {rc}"
        if f"blocks: {blocks}" not in lines:
            return f"expected {blocks} blocks"
        return None

    return check


def _check_fail(rc, out, err, workdir):
    if rc != 3 or "FAIL" not in out + err:
        return f"expected a verification failure (exit 3), got exit {rc}"
    return None


def _copies(name, seed):
    """Write the permuted and the corrupted copy of one construct output."""

    def prepare(workdir):
        rng = random.Random(f"{seed}/{name}")
        with open(os.path.join(workdir, name), encoding="ascii") as fh:
            doc = families.read_document(fh.read())
        for suffix, copy in (
            ("perm", families.permute(doc, rng)),
            ("bad", families.corrupt(families.permute(doc, rng), rng)),
        ):
            path = os.path.join(workdir, name.replace(".json", f".{suffix}.json"))
            with open(path, "w", encoding="ascii") as fh:
                fh.write(families.write_document(copy))

    return prepare


def certify_jobs(seed: int, warm_up: bool = False) -> list:
    """The seeded job list; ``warm_up`` keeps only the latin-120 group,
    which runs every subcommand the pass uses but derive."""
    rng = random.Random(seed)
    groups = []
    for name, args in CERTIFY_FAMILIES[:1] if warm_up else CERTIFY_FAMILIES:
        blocks = reference.CONSTRUCT_OUTPUTS[name][0]
        outputs = [name] + (["L.json"] if "--write-large-set" in args else [])
        construct = Job(f"construct {name}", "construct",
                        ["construct", *args, "--out", name],
                        _check_construct(*outputs))
        checks = [
            Job(f"verify {name} permuted", "verify",
                ["verify", name.replace(".json", ".perm.json")], _check_pass(blocks)),
            Job(f"verify {name} corrupted", "verify",
                ["verify", name.replace(".json", ".bad.json")], _check_fail),
        ]
        if name.startswith("augment34-48"):
            checks.append(Job("derive augment34-48 0 47", "construct",
                              ["derive", name, "0", "47", "--out", "derived.json"],
                              _check_construct("derived.json")))
        if "--write-large-set" in args:
            checks.append(Job("verify L.json", "verify", ["verify", "L.json"],
                              _check_classes))
        rng.shuffle(checks)
        # the copies are made once the construct output exists
        checks[0] = checks[0]._replace(prepare=_copies(name, seed))
        groups.append([construct] + checks)
    rng.shuffle(groups)
    return [job for group in groups for job in group]


def _check_classes(rc, out, err, workdir):
    lines = out.splitlines()
    if rc != 0 or lines[-1:] != ["result: PASS"] or "blocks: 84" not in lines:
        return f"expected the large set to PASS with 84 blocks, got exit {rc}"
    return None


def _check_exact(t, k, v):
    want = reference.ORACLE_EXACT[(t, k, v)]

    def check(rc, out, err, workdir):
        m = _ORACLE_LINE.search(out)
        if rc != 0 or m is None:
            return f"oracle exit {rc}"
        if tuple(map(int, m.group(1, 2, 3))) != (t, k, v) or m.group(5) != "exact":
            return f"not an exact result: {m.group(0)}"
        if int(m.group(4)) != want:
            return f"A({t},{k},{v}) = {m.group(4)}, expected {want}"
        return None

    return check


def oracle_answer(out: str):
    """(size, nodes) from an exact-search job's output, or None."""
    m = _ORACLE_LINE.search(out)
    return (int(m.group(4)), int(m.group(6))) if m else None


def baseline_retained(out: str):
    """(retained, trials) from a baseline job's output, or None."""
    m = _RETAINED_LINE.search(out)
    return (int(m.group(1)), int(m.group(2))) if m else None


def _check_witness(rc, out, err, workdir):
    problem = _check_exact(2, 3, 8)(rc, out, err, workdir)
    if problem:
        return problem
    if len(json.loads(_read(workdir, "W.json"))["blocks"]) != 8:
        return "witness W.json does not hold 8 blocks"
    for line in _read(workdir, "S.jsonl").splitlines():
        json.loads(line)
    return None


def _check_baseline(seed):
    v, k, t, trials = BASELINE

    def check(rc, out, err, workdir):
        kept = reference.baseline_retained(v, k, t, trials, seed)
        ref = reference.fraction_text(reference.existence_reference(v, k, t))
        expected = [
            f"retained {kept} structured sets over {trials} trials",
            f"reference (v*t/k^2)^t = {ref}",
        ]
        if rc != 0 or out.splitlines() != expected:
            return f"baseline output {out.splitlines()!r}, expected {expected!r}"
        return None

    return check


def oracle_jobs(seed: int, warm_up: bool = False) -> list:
    """The seeded job list; ``warm_up`` drops the six exact instances and
    keeps the (2,3,8) witness, its verify and the baseline."""
    rng = random.Random(seed)
    groups = [
        [Job(f"oracle {t} {k} {v}", "oracle", ["oracle", str(t), str(k), str(v)],
             _check_exact(t, k, v), log=f"search-{t}-{k}-{v}.jsonl")]
        for t, k, v in (() if warm_up else ORACLE_INSTANCES)
    ]
    groups.append([
        Job("oracle 2 3 8 witness", "oracle",
            ["oracle", "2", "3", "8", "--out", "W.json", "--log", "S.jsonl"],
            _check_witness, log="S.jsonl"),
        Job("verify W.json", "verify", ["verify", "W.json"], _check_pass(8)),
    ])
    v, k, t, trials = BASELINE
    baseline_seed = rng.randrange(2**31)
    groups.append([
        Job("oracle baseline", "oracle",
            ["oracle", str(t), str(k), str(v), "--baseline", "--trials", str(trials),
             "--seed", str(baseline_seed)],
            _check_baseline(baseline_seed)),
    ])
    rng.shuffle(groups)
    return [job for group in groups for job in group]
