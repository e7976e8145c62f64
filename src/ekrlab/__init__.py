"""ekrlab: exact-arithmetic workbench for biased-measure extremal set theory.

Set-family algebra on the hypercube, exact p-biased measures and influences,
shadow machinery with Kruskal-Katona bounds, the named extremal/tightness
families, stability-theorem condition checkers, and compression-pruned
exhaustive searches that reproduce the exact theorems at desk scale.
"""

from ._kernels import BACKEND as kernel_backend
from .families import (EdgeGround, SetFamily, UniformFamily, is_t_intersecting,
                       is_triangle_intersecting, matching_number)
from .io import family_to_dict, load_family
from .measures import InfluenceVector, influence, mu, mu_polynomial
from .numerics import check_eq, check_le, parse_rational
from .report import VerdictReport
from .search import (SearchCertificate, SearchProblem, iter_uniform_families,
                     max_uniform, monotone_count_oracle)
from .shadows import (increasing_shadow, katona_check, kk_min_shadow,
                      lower_shadow, upper_shadow)
from .verify import (DerivedConstants, TheoremCase, check_theorem,
                     conjecture_scan, tightness_report)
from .zoo import FamilySpec, ak_max, closed_form_mu, closed_form_size, construct, defining_root

__version__ = "0.1.0"
