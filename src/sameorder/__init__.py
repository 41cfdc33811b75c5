"""Order spectra and same-order types of finite groups.

Build a group from a small expression language (cyclic, dihedral, dicyclic,
symmetric, alternating, Frobenius, special linear and unitary families plus
direct products), enumerate it (a direct product factor by factor; the
cyclic, dihedral, dicyclic, Frobenius, symmetric and alternating atoms and
SL(2,q) and SL(3,q) are answered from their parameters instead), and
compute how many elements it has of each order.  The distinct counts form the group's same-order type; the package
verifies which small simple groups have a five-size type and exhibits
solvable groups of order 168 sharing that cardinality with PSL(2,7).

numpy is imported inside the functions that use it, so importing the package
loads none of it and neither does an expression answered from parameters;
the first walk, finite field or divisor lattice imports it.
"""

from .core import (
    DEFAULT_CAP,
    DirectProduct,
    Group,
    NonIsoCertificate,
    Spectrum,
    noniso_certificate,
    spectrum_checks,
    spectrum_direct_product,
)
from .dsl import eval_expr, group_for, normalize_expr, parse_expr, print_expr
from .errors import (
    CapExceededError,
    DslError,
    EngineError,
    InvalidParameterError,
    NoWitnessError,
    OrderMismatchError,
    VerificationError,
)
from .fields import FiniteField
from .matrices import MatrixGroup, classical_group, classical_order
from .perms import PermutationGroup, permutation_group
from .reports import ENGINE_VERSION, build_report, report_for
from .verify import counterexample_report, hunt_report, theorem_report

__version__ = ENGINE_VERSION

__all__ = [
    "CapExceededError",
    "DEFAULT_CAP",
    "DirectProduct",
    "DslError",
    "ENGINE_VERSION",
    "EngineError",
    "FiniteField",
    "Group",
    "InvalidParameterError",
    "MatrixGroup",
    "NonIsoCertificate",
    "NoWitnessError",
    "OrderMismatchError",
    "PermutationGroup",
    "Spectrum",
    "VerificationError",
    "build_report",
    "classical_group",
    "classical_order",
    "counterexample_report",
    "eval_expr",
    "group_for",
    "hunt_report",
    "noniso_certificate",
    "normalize_expr",
    "parse_expr",
    "permutation_group",
    "print_expr",
    "report_for",
    "spectrum_checks",
    "spectrum_direct_product",
    "theorem_report",
]
