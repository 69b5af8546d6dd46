"""kfour: the complex K-theory ring of a 4-dimensional CW complex.

On a 4-complex, a stable vector bundle class is determined by its virtual
rank and its two Chern classes, and every pair of even cohomology classes
occurs.  This package takes the even cohomology ring (H^2, H^4 and the cup
pairing between them) as exact input data and computes the K-group's ring
structure in those coordinates: canonical class representation, arithmetic,
the isomorphism type of the reduced and full K-groups, and brute-force
verification of the defining relations.

All arithmetic is exact (arbitrary-precision integers); every value is
immutable and safe to share across threads.
"""

from . import abelian, cohomology, dsl, kclasses, oracle, structure
from .abelian import *
from .cohomology import *
from .dsl import *
from .kclasses import *
from .oracle import *
from .structure import *

__version__ = "0.1.0"

# a public name is declared once, in its module's __all__
__all__ = sorted(
    name
    for module in (abelian, cohomology, dsl, kclasses, oracle, structure)
    for name in module.__all__
)
