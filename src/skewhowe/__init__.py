"""Exact-arithmetic toolkit for combinatorial skew Howe duality.

Determinant and product formulas for tensor-power multiplicities of the
classical dual pairs (with their q-analogs), a crystal oracle that walks
the dominant weights of a tensor power, Gelfand-Tsetlin pattern counts
and lozenge tilings, the induced probability measures on Young diagrams
with exact and Monte Carlo samplers, and the closed-form limit shapes of
the random diagrams.  The package holds what its commands run; the side
identities (lattice-path enumeration, Proctor patterns, the BC z-measure,
Krawtchouk, binomialization, q-normalizations, Hoggatt, tableaux,
MacMahon) are oracles in the tests next to the checks that use them.

Importing the package loads none of its modules: each public name, and
each module, is imported on first access (PEP 562), so a command runs
only the modules it uses.
"""

import importlib

#: module -> the public names it exports here
_EXPORTS = {
    "exact": ("QLaurent", "QProduct", "catalan_triangle_q", "q_binomial"),
    "partitions": ("Partition",),
    "crystals": ("multiplicity_oracle",),
    "patterns": ("GTPattern", "LozengeTiling", "count_gt", "gt_to_lozenge"),
    "multiplicity": ("DualitySpec", "mult_prod_A_q", "mult_prod_BC_q",
                     "mult_prod_D_q", "qdim", "verify_duality",
                     "weyl_dimension"),
    "ensembles": ("MeasureTable", "dual_rsk_shape", "dual_rsk_shapes",
                  "measure_table", "most_probable_diagram", "sample"),
    "limitshape": ("ShapeCurve", "diagram_boundary", "limit_f",
                   "mean_boundary", "rho", "sup_distance"),
}
#: public name -> its module
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module that holds name, or the module name, once."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
