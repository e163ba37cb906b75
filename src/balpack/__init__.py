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
:mod:`balpack.cli`.  The package registers the eight layers above
:mod:`balpack.core` as package globals with a lazy loader, before it imports
``core``: a layer's body runs on first attribute access, so a program
compiles only the layers it calls, and layers import each other plainly.
The names from :mod:`balpack.bounds` are served from that module (PEP 562),
so a program that never bounds a family never compiles it.
"""

import importlib.util
import sys


def _lazy(name: str):
    """Register ``balpack.<name>``; its body runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    sys.modules[spec.name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


babai_frankl, bounds, factorization, gf, latin, oracle, sumcode, transversal = map(
    _lazy, "babai_frankl bounds factorization gf latin oracle sumcode transversal".split())

from balpack.core import (  # noqa: E402  (after the layers are registered)
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

# The names of __all__ bound nowhere above are balpack.bounds's: __getattr__
# looks each one up there on every access, so it is always the object that
# module holds.
_BOUNDS_NAMES = frozenset(__all__).difference(globals())


def __getattr__(name):
    if name in _BOUNDS_NAMES:
        return getattr(bounds, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_BOUNDS_NAMES})
