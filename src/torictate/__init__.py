"""Tate resolutions, sheaf cohomology, Betti numbers, and resolutions of the
diagonal for (weighted) projective toric stacks, computed with exact linear
algebra over a finite field or the rationals — no Groebner bases anywhere.
"""

from .linalg import GF, QQ, Mat, homology_dim, kernel_basis, rank
from .toric import (PositiveGrading, ToricStack, Window, cone_contains,
                    hirzebruch, is_irrelevant_subset, p1xp1, projective_space,
                    weighted_projective, weights_degI, weights_zgraded)
from .smodule import (DegreewiseModule, Poly, Presentation, generated_truncation,
                      koszul_complex, monomial_basis, realize, truncate, twist)
from .exterior import OmegaTwist, ext_mul, socle_readoff
from .diffmod import (DMMorphism, EComplex, FreeDiffModule, check_minimal,
                      check_square_zero, cone, fold, homology_column, minimize,
                      tensor_EI, unfold)
from .bgg import L, R, R_I, betti_table, roundtrip_check
from .dmres import min_free_resolution, verify_quasi_iso
from .cohomology import (cohomology_table_fast, is_0_regular,
                         local_cohomology_oracle, sheaf_cohomology_oracle,
                         weighted_closed_forms)
from .tate import (TateResult, beilinson_U, check_exactness_property,
                   check_R_embedding, fm_transform, tate_weighted)
from .diagonal import (build_F, build_F_prime_weighted, check_acyclicity,
                       check_H0_diagonal, hirzebruch1_report)

__all__ = [name for name in dir() if not name.startswith("_")]
