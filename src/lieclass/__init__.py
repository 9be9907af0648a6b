"""lieclass: computational classification toolkit for spherical flag
varieties, bounded subalgebras and related combinatorics.

The package is organized around a combinatorial layer (partitions, tuples,
weights), exact matrix models of the classical Lie algebras, a Monte Carlo
sphericity oracle with certified ranks, the encoded classification tables,
and auxiliary representation theory (quivers with relations, symmetric
group modules).

The public names below resolve lazily (PEP 562): ``lieclass.odd_pair``
imports ``lieclass.joseph`` on first use, so importing the package loads no
submodule, and numpy only with a module that needs it.
"""

import importlib

# home module -> the public names it defines
_EXPORTS = {
    "algebras": ("CatalogAlgebra", "ModuleSpec", "make_algebra", "representation"),
    "classifier": (
        "ClassificationDatum",
        "ClassificationVerdict",
        "classify_flag_datum",
        "classify_grassmannian",
        "product_flags_spherical",
    ),
    "errors": ("LieclassError",),
    "joseph": ("bounded_count_sl", "is_joseph_sl", "is_joseph_sp", "odd_pair"),
    "oracle": (
        "OracleVerdict",
        "is_spherical_flag",
        "is_spherical_module",
    ),
    "partitions": ("FlagType", "Partition", "dominance_leq", "flag_order"),
    "quivers": ("QuiverSpec", "count_P", "enumerate_simples"),
    "sphericaltable": ("is_spherical_module_by_table",),
    "tuples": ("classify_tuple", "is_shale_weil", "monodromy"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    # Not cached in globals(): a name always reads its home module's current
    # binding, so a rebinding there (a test's monkeypatch, a tracer's
    # wrapper and its removal) shows here too.
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + home, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
