"""Exact-arithmetic toolkit for combinatorial skew Howe duality.

Determinant and product formulas for tensor-power multiplicities of the
classical dual pairs (with their q-analogs), brute-force crystal and
lattice-path oracles, the induced probability measures on Young
diagrams with exact and Monte Carlo samplers, and the closed-form limit
shapes of the random diagrams.
"""

from .exact import (QLaurent, QProduct, catalan_triangle_q, q_binomial,
                    q_factorial, q_int)
from .partitions import Partition, TypeDWeight, enumerate_in_box
from .crystals import TensorWord, apply_operator, multiplicity_oracle
from .patterns import (GTPattern, LozengeTiling, SemistandardTableau,
                       count_gt, count_king_tableaux, count_proctor,
                       enumerate_gt, enumerate_proctor, gt_pattern_at,
                       gt_to_lozenge, lozenge_to_gt, nilp_count,
                       plane_partition_count, psi_involution)
from .multiplicity import (DualitySpec, hoggatt, hoggatt_q, mult_det_A_q,
                           mult_det_BC_q, mult_det_D_q, mult_prod_A_q,
                           mult_prod_BC_q, mult_prod_D_q, qdim,
                           verify_duality, weyl_dimension)
from .ensembles import (BCZMeasureParams, KrawtchoukForm, MeasureTable,
                        bc_z_measure, binomialization_check, dual_rsk_shape,
                        exterior_power_measure, krawtchouk_decompose,
                        measure_table, most_probable_diagram,
                        q_measure_normalization, sample,
                        verify_bc_specialization)
from .limitshape import (ShapeCurve, diagram_boundary, first_row_prediction,
                         limit_f, mean_boundary, rho, sup_distance)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
