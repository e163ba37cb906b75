"""Seeded inputs for the benchmark, made with the standard library only.

A *document* here is the plain dict form of a packing file: ``v``, ``t``,
``k``, ``labels`` (a +/- string) and ``blocks`` (sorted tuples).  The
writer reproduces the package's file format byte for byte, so the
round trip in ``verify-batch`` compares the program's ``to_json`` against
an independent serialisation.

Every random choice goes through one ``random.Random`` built from the
workload seed, so the same seed gives byte-identical inputs.
"""

from __future__ import annotations

import json
import random


def write_document(doc: dict) -> str:
    """Serialise a document in the packing file format (one block per line)."""
    out = [
        "{",
        '  "version": 1,',
        f'  "v": {doc["v"]},',
        f'  "t": {doc["t"]},',
        f'  "k": {doc["k"]},',
        f'  "labels": "{doc["labels"]}",',
    ]
    blocks = doc["blocks"]
    if blocks:
        out.append('  "blocks": [')
        out.extend(
            "    " + json.dumps(list(b)) + ("," if i + 1 < len(blocks) else "")
            for i, b in enumerate(blocks)
        )
        out.append("  ]")
    else:
        out.append('  "blocks": []')
    out.append("}")
    return "\n".join(out) + "\n"


def read_document(text: str) -> dict:
    raw = json.loads(text)
    return {
        "v": raw["v"],
        "t": raw["t"],
        "k": raw["k"],
        "labels": raw["labels"],
        "blocks": [tuple(b) for b in raw["blocks"]],
    }


def _with(doc: dict, labels: str, blocks) -> dict:
    return dict(doc, labels=labels, blocks=sorted(tuple(sorted(b)) for b in blocks))


def permute(doc: dict, rng: random.Random) -> dict:
    """Relabel the points by a random permutation; the family is unchanged
    up to isomorphism, so every verdict and statistic stays the same."""
    v = doc["v"]
    perm = list(range(v))
    rng.shuffle(perm)
    labels = [""] * v
    for x, sign in enumerate(doc["labels"]):
        labels[perm[x]] = sign
    return _with(doc, "".join(labels), ([perm[x] for x in b] for b in doc["blocks"]))


def _sign(ch: str) -> int:
    return 1 if ch == "+" else -1


def corrupt_pair(doc: dict, rng: random.Random):
    """Replace one block by a balanced block sharing exactly t points with
    another block, so the packing condition fails and nothing else does.
    Returns None when no such block exists (tiny families)."""
    t, k, labels, blocks = doc["t"], doc["k"], doc["labels"], doc["blocks"]
    present = set(blocks)
    for _ in range(50):
        a = rng.choice(blocks)
        shared = rng.sample(a, t)
        outside = {+1: [], -1: []}
        for x in range(doc["v"]):
            if x not in a:
                outside[_sign(labels[x])].append(x)
        need = k - t
        d = sum(_sign(labels[x]) for x in shared)
        # n_plus - n_minus must bring the block sum into {-1, 0, +1}
        options = [
            n_plus for n_plus in range(need + 1)
            if abs(d + 2 * n_plus - need) <= 1
            and n_plus <= len(outside[1]) and need - n_plus <= len(outside[-1])
        ]
        if not options:
            continue
        n_plus = rng.choice(options)
        new = tuple(sorted(
            shared + rng.sample(outside[1], n_plus)
            + rng.sample(outside[-1], need - n_plus)
        ))
        if new in present:
            continue
        victim = rng.choice([b for b in blocks if b != a])
        return _with(doc, labels, [new if b == victim else b for b in blocks])
    return None


def corrupt_flip(doc: dict, rng: random.Random) -> dict:
    """Flip one point's label so that some block's discrepancy leaves
    {-1, 0, +1}: in a block with sum d >= 0 flip a negative point, in one
    with d <= 0 a positive point."""
    labels = doc["labels"]
    for b in rng.sample(doc["blocks"], len(doc["blocks"])):
        d = sum(_sign(labels[x]) for x in b)
        want = "-" if d >= 0 else "+"
        points = [x for x in b if labels[x] == want]
        if points:
            x = rng.choice(points)
            flipped = labels[:x] + ("+" if want == "-" else "-") + labels[x + 1:]
            return _with(doc, flipped, doc["blocks"])
    raise ValueError("no block admits an unbalancing flip")


def corrupt(doc: dict, rng: random.Random) -> dict:
    """Seeded corruption: a block pair sharing t points or a flipped label."""
    if rng.random() < 0.5:
        bad = corrupt_pair(doc, rng)
        if bad is not None:
            return bad
    return corrupt_flip(doc, rng)


def majority_positive(doc: dict) -> dict:
    """Negate every label when negatives outnumber positives.

    ``parse_document`` normalises stored labelings the same way, so only
    documents in this form survive a byte-identical round trip.  A global
    flip keeps every block's |discrepancy|, so verdicts do not change."""
    labels = doc["labels"]
    if labels.count("-") <= labels.count("+"):
        return doc
    return dict(doc, labels=labels.translate(str.maketrans("+-", "-+")))


def batch_inputs(bases, seed: int, copies: int):
    """``copies`` families of each base for verify-batch, in seeded order:
    every seed draws each base equally often (so every seed does the same
    work), each copy with a seeded point permutation, and every other copy
    of a base with a seeded corruption.

    Returns a list of ``(text, expect_pass, n_blocks, (t, k, v))``."""
    rng = random.Random(seed)
    plan = [(base, c % 2 == 0) for base in bases for c in range(copies)]
    rng.shuffle(plan)
    out = []
    for base, expect_pass in plan:
        doc = permute(base, rng)
        if not expect_pass:
            doc = corrupt(doc, rng)
        doc = majority_positive(doc)
        out.append((write_document(doc), expect_pass, len(doc["blocks"]),
                    (doc["t"], doc["k"], doc["v"])))
    return out
