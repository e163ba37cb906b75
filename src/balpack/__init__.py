"""balpack: constructions, bounds, and exact search for balanced packings.

A balanced packing is a family of k-element blocks over a ground set [v],
every two blocks sharing fewer than t elements, together with a +/-1
labeling of the ground set under which every block's label sum lies in
{-1, 0, +1}.  The package builds such families (Latin-rectangle,
transversal-design, finite-field, one-factorization, restricted-sum and
product routes), bounds their maximum size, verifies them, and searches
small parameter sets exactly.

The most commonly used names are re-exported here; each construction
family lives in its own submodule (:mod:`balpack.latin`,
:mod:`balpack.transversal`, :mod:`balpack.babai_frankl`,
:mod:`balpack.factorization`, :mod:`balpack.sumcode`), with exact search
in :mod:`balpack.oracle` and the command-line front end in
:mod:`balpack.cli`.  The names from :mod:`balpack.bounds` load it on first
use (PEP 562), so a program that never bounds a family never compiles it.
"""

from balpack.core import (
    BalancedPacking,
    FormatError,
    Labeling,
    PackingError,
    PreconditionViolated,
    VerificationReport,
    derive_subdesign,
    discrepancy,
    from_json,
    load_packing,
    make_packing,
    save_packing,
    to_json,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "BalancedPacking",
    "FormatError",
    "GapResult",
    "Labeling",
    "PackingError",
    "PreconditionViolated",
    "SteinerSize",
    "VerificationReport",
    "corollary_bound",
    "derive_subdesign",
    "discrepancy",
    "from_json",
    "lemma1_bound",
    "load_packing",
    "make_packing",
    "save_packing",
    "steiner_size",
    "theorem1_gap",
    "to_json",
    "type_lp_bound",
    "verify",
    "__version__",
]

# Served by __getattr__, which looks each one up in balpack.bounds on every
# access, so it is always the object that module holds.
_BOUNDS_NAMES = frozenset({
    "GapResult",
    "SteinerSize",
    "corollary_bound",
    "lemma1_bound",
    "steiner_size",
    "theorem1_gap",
    "type_lp_bound",
})


def __getattr__(name):
    if name == "bounds" or name in _BOUNDS_NAMES:
        from importlib import import_module

        bounds = import_module("balpack.bounds")  # sets balpack.bounds
        return bounds if name == "bounds" else getattr(bounds, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "bounds", *_BOUNDS_NAMES})
