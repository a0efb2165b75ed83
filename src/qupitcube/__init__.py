"""Exact toolkit for cubic-lattice qupit stabilizer codes.

Builds inversion-symmetric cube-generator codes over a prime field,
decides the three algebraic no-string conditions, measures nontrivial
string-segment lengths with an exact linear-algebra solver, classifies
parameter tuples up to the lattice/Clifford equivalence group, and
constructs planar logical operators on tori.  The slow reference oracles
the tests check these against live in ``qupitcube.reference``, which the
package does not import.
"""

from .codes import (
    CodeParams,
    PauliConfig,
    d3_code,
    d5_code,
    load_params,
    symplectic_product,
    verify_translation_commutation,
)
from .conditions import TheoremReport, theorem1_report
from .oracle import (
    SegmentGeometry,
    SegmentReport,
    scan_widths,
)
from .classify import (
    classify_orbits,
    scan_theorem1,
)
from .logical import (
    TorusCode,
    encoded_qudit_count,
)

__version__ = "0.1.0"
