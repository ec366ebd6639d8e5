"""Exact computer algebra for odometer crossed-product (Bunce-Deddens) algebras.

Supernatural arithmetic, truncated odometer rings, exact cyclotomic values,
locally constant functions, the polynomial crossed-product algebra with its
matrix symbols and norm estimates, derivation classification data, K-theoretic
invariants and integer homological algebra.

The names below are loaded on first access (PEP 562): importing the package
imports none of its modules, so a caller pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "bd_algebra": ("BDElement", "NormReport", "operator_norm", "spectrum_sample"),
    "cyclotomic": ("Cyclo", "cyclotomic_polynomial", "root_of_unity"),
    "derivations": ("CharacterPick", "DerivationData", "decompose_invariant",
                    "nonsmooth_commutator", "pick_character", "recover_covariant",
                    "solve_cocycle"),
    "homalg": ("FGAbelianGroup", "IntMatrix", "ext1_hom", "smith_normal_form"),
    "k_invariants": ("GSRational", "PhiFn", "hom_obstruction", "k0_class",
                     "residue_projection"),
    "odometer_fn": ("LocConstFn", "character", "synthesize"),
    "profinite": ("DivisorChain", "ProfiniteInt"),
    "supernatural": ("INF", "SupernaturalNumber"),
    "verify": ("SUITES", "VerifyReport", "run_suite"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
