"""Exact cohomology-ring computations for quot and filt schemes of a
smooth projective curve: fixed-point cell classes, their quot-scheme
pullbacks by two independent routes, torus localization and Poincare
series, all in exact rational arithmetic."""

from .ring import (POINT, UNIT, UNBOUNDED, RingContext, RingElement, alpha,
                   beta, cohomological_degree, diagonal, permute_factors,
                   point_class, project_invariant, small_diagonal)
from .grammar import ParseError, format_element, parse
from .cells import (cell_class, cell_class_equivariant, cell_class_series,
                    cell_class_series_closed_form, lower_index_step_residual,
                    module_recursion_residual, to_cell_basis)
from .localization import (degree_bound_check, restrict_to_fixed_point,
                           t_degree, top_term, top_term_residual,
                           vanishing_check)
from .pullback import (generator_span_check, invariant_dimension,
                       is_invariant, partial_flag_pullback, quot_pullback,
                       quot_pullback_combinatorial, span_rank)
from .series import (filt_poincare, filt_presentation_check,
                     infinite_limits_check, quot_poincare, quot_series_check,
                     symmetric_product_poincare)
from . import weights

__all__ = [name for name in dir() if not name.startswith("_")]
