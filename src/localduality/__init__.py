"""Windowed local cohomology, Matlis duality, Gorenstein certification and
relative dualizing modules for connected graded algebras over prime fields."""

from .exactla import ContractViolation, SparseMatrix
from .graded import (FreeModule, GradedModule, GradedRing, HomIdeal, Window,
                     dual_hilbert_function, hilbert_function,
                     minimal_free_resolution, tor, ext)
from .complexes import FreeComplex, WindowedComplex, homology, module_complex
from .torsion import (check_recollement, completion, delta,
                      fracture_check, gamma, koszul_object, localize_away,
                      local_to_global_acyclicity, tate, telescope_invert)
from .cohom import (CohomologyTable, cech_cohomology, collapse_check,
                    local_cohomology, local_homology, oracle_agreement)
from .duality import (GorensteinCertificate, absolute_gorenstein_check,
                      brown_comenetz, dual_localize, gorenstein_certificate,
                      injective_hull, is_free_rank_one, is_shifted_hull,
                      maximal_ideal, orthogonality_check, twist_check)
from .relative import (DualizingModule, RingMap, coinduction_split_check,
                       compactness_certificate, dualizing_module, induce,
                       restrict, theorem_bc_check, transitivity_check)

__version__ = "0.2.0"
