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
"""

from .exact import QLaurent, QProduct, catalan_triangle_q, q_binomial
from .partitions import Partition
from .crystals import multiplicity_oracle
from .patterns import GTPattern, LozengeTiling, count_gt, gt_to_lozenge
from .multiplicity import (DualitySpec, mult_prod_A_q, mult_prod_BC_q,
                           mult_prod_D_q, qdim, verify_duality,
                           weyl_dimension)
from .ensembles import (MeasureTable, dual_rsk_shape, dual_rsk_shapes,
                        measure_table, most_probable_diagram, sample)
from .limitshape import (ShapeCurve, diagram_boundary, limit_f,
                         mean_boundary, rho, sup_distance)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
