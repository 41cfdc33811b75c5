"""What the tests that check a group answered from its parameters against a
walk of the same group share: walker, the walked builder of each atom the
engine answers from its parameters, with which conftest's built_perm
enumerates such atoms, and same_group, the one comparison of the two
routes.  Each such family has a walker and a test that calls same_group on a
fixed sample of its own.

These import sameorder, so they cannot sit in oracles.py, which must not.
"""

from functools import partial

from oracles import PERMUTATION_BUILDERS

from sameorder.dsl import SL_DEGREES, print_expr
from sameorder.matrices import classical_group
from sameorder.perms import permutation_group


def walker(atom):
    """The walked builder of an atom the engine answers from its parameters,
    called with those parameters: for C, D, Dic, F, S and A the oracle's
    permutation builder, making a PermutationGroup, and for SL(2,q) and
    SL(3,q) classical_group's matrix walk.  None for any other atom."""
    family = getattr(atom, "family", None)  # a PermAtom has no family
    if family == "SL" and atom.params[0] in SL_DEGREES:
        return partial(classical_group, "SL")
    if family not in PERMUTATION_BUILDERS:
        return None
    gens = PERMUTATION_BUILDERS[family]
    return lambda *params: permutation_group(gens(*params), name=print_expr(atom))


def invariants(g) -> tuple:
    """What two routes to one group must agree on: order, spectrum with its
    key order, alpha, center order, simplicity, derived series and
    solvability."""
    return (g.order(), g.spectrum(), list(g.spectrum().counts), g.alpha(), g.center_order(),
            g.is_simple(), g.derived_series(), g.is_solvable())


def same_group(g, ref, kind, walked) -> None:
    """g is answered as a kind, ref is walked as a walked, and the two agree
    on invariants."""
    assert isinstance(g, kind) and isinstance(ref, walked), (type(g), type(ref))
    assert invariants(g) == invariants(ref)
