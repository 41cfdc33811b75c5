"""Matrix groups over finite fields: SL, PSL, SU, PSU.

A generator is an n x n matrix given as its rows of field codes.  After the
closure the group lives in index space (see core) and reads no field table
again.

Inside a MatrixGroup an element is its packed key: the n*n codes,
(q-1).bit_length() bits each, in one uint64 with the first entry highest,
so key order is row-major lexicographic order.  A group stores its elements
as keys alone, in position order, and pack_keys is the one place that packs
them; the sorted copy the closure looks products up in is dropped when the
walk ends.  The walk deduplicates each chunk of products with one unstable
argsort (_unique) and merges its new keys into the sorted copy with one
scatter (_merge), where np.unique and np.insert would each run a stable
sort.  n^2 * bits <= 64 is checked before a group is built.  Row i of
x * h is (row i of x) * h, so the closure multiplies by a kept generator h
with one lookup per row of x's key in h's row table.

classical_group, the one constructor, builds its own field: GF(q) for SL and
PSL, GF(q^2) for SU and PSU, each with the one modulus that
fields.FiniteField uses.

A MatrixGroup is a group of matrices modulo a subgroup Z of scalars, given
as field codes; a linear group has Z = (1,).  Each coset xZ is represented
by its member with the least packed key, which is also the least rows tuple;
the group replaces each generator by that member, and the walk multiplies x
by s*h for each kept generator h and each s in Z and keeps the least
product.  PSL and PSU are SL and SU modulo the scalars they contain,
gcd(n, q - 1) of them (gcd(n, q + 1) for PSU).  With Z all of GF(q)* the
least multiple is the one whose first nonzero entry in row-major order is 1.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from numbers import Integral

import numpy as np

from .core import DEFAULT_CAP, Closure, Group
from .errors import CapExceededError, InvalidParameterError, OrderMismatchError
from .fields import MAX_FIELD_SIZE, FiniteField
from .numtheory import prime_power


# -- packed keys --------------------------------------------------------------------

KEY_BITS = 64


def key_bits(q: int, n: int) -> int:
    """Bits per entry in the packed key of an n x n matrix over GF(q).

    Raises InvalidParameterError when the whole key would not fit in
    KEY_BITS; the smallest classical group past the limit is SU(3,13).
    """
    bits = (q - 1).bit_length()
    if bits * n * n > KEY_BITS:
        raise InvalidParameterError(
            f"matrix keys hold at most {KEY_BITS} bits, and a {n}x{n} matrix "
            f"over GF({q}) needs {bits * n * n}"
        )
    return bits


def pack_keys(codes, q: int):
    """Packed uint64 keys of r x n blocks over GF(q), shape (..., r, n) -> (...):
    element keys for n x n matrices, row codes for 1 x n rows.  Entries never
    overlap, so the dot product with the place values is an exact bitwise
    concatenation, first entry highest."""
    n = codes.shape[-1]
    flat = codes.reshape(codes.shape[:-2] + (codes.shape[-2] * n,)).astype(np.uint64)
    shifts = np.arange(flat.shape[-1] - 1, -1, -1, dtype=np.uint64) * np.uint64(key_bits(q, n))
    return flat @ (np.uint64(1) << shifts)


def _locate(sorted_keys, keys):
    """Insertion points of keys in a nonempty sorted key array, and which are there."""
    at = np.searchsorted(sorted_keys, keys)
    found = sorted_keys[np.minimum(at, len(sorted_keys) - 1)] == keys
    return at, found


def _unique(keys):
    """np.unique(keys, return_index=True, return_inverse=True) of a nonempty
    1-D key array, from one default (unstable) argsort: the keys in order,
    the least index of each in keys, and where each of keys went.  np.unique
    sorts stably so that its first index is the least; here the least index
    of each run of equal keys is taken with minimum.reduceat instead."""
    perm = np.argsort(keys)
    ordered = keys[perm]
    head = np.empty(len(keys), dtype=bool)  # where each run of equal keys starts
    head[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[perm] = np.cumsum(head) - 1
    return ordered[starts], np.minimum.reduceat(perm, starts), inverse


def _merge(sorted_keys, positions, at, new, new_positions):
    """np.insert(sorted_keys, at, new) and np.insert(positions, at,
    new_positions) for ascending at, by one scatter each way: new key i lands
    at at[i] + i, and the old keys fill the other slots in order."""
    dest = at + np.arange(len(new))
    old = np.ones(len(sorted_keys) + len(new), dtype=bool)
    old[dest] = False
    keys, pos = np.empty(len(old), dtype=sorted_keys.dtype), np.empty(len(old), dtype=positions.dtype)
    keys[dest], keys[old] = new, sorted_keys
    pos[dest], pos[old] = new_positions, positions
    return keys, pos


# -- batched table arithmetic -----------------------------------------------------


def _bmul(add_t, mul_t, a, b):
    """Batched matrix product C[..., i, j] = sum_k A[..., i, k] B[..., k, j] of
    field codes, leading dimensions broadcasting: per k, one gather from the
    flattened mul table at a * q + b and one from the flattened add table."""
    q = len(add_t)
    add_f, mul_f = add_t.ravel(), mul_t.ravel()
    a = a.astype(np.intp) * q
    out = mul_f[a[..., :, 0, None] + b[..., None, 0, :]]
    for k in range(1, a.shape[-1]):
        p = mul_f[a[..., :, k, None] + b[..., None, k, :]]
        out = add_f[np.multiply(out, q, dtype=np.intp) + p]
    return out


def _bdet(add_t, mul_t, neg, m):
    """Batched determinant of n x n blocks of field codes, shape (..., n, n) -> (...),
    by the Leibniz sum over the n! permutations, each term a product of n
    table gathers (n <= 4 here), negated for an odd permutation."""
    n = m.shape[-1]
    det = np.zeros(m.shape[:-2], dtype=np.uint16)
    for perm in permutations(range(n)):
        term = m[..., 0, perm[0]]
        for i in range(1, n):
            term = mul_t[term, m[..., i, perm[i]]]
        if sum(a > b for a, b in combinations(perm, 2)) % 2:
            term = neg[term]
        det = add_t[det, term]
    return det


def row_table(field: FiniteField, h):
    """T_h[c] = packed row v * h for each row v packed as c, from one _bmul over
    all 2^(bits * n) codes; a code naming no row (q not a power of two) gets
    a stand-in with clipped entries, never read."""
    add_t, mul_t = field.np_tables()
    n, q = len(h), field.q
    rows = np.indices((1 << key_bits(q, n),) * n, dtype=np.uint16).reshape(n, -1).T[:, None]
    return pack_keys(_bmul(add_t, mul_t, np.minimum(rows, q - 1), np.array(h)), q)


_CHUNK = 65536


class MatrixGroup(Group):
    """Matrices over one field modulo scalars, the codes of a subgroup of its units.

    Raises InvalidParameterError when scalars are not that: distinct codes of
    units, holding 1, closed under multiplication; and when a generator is
    not an invertible n x n matrix of codes of the field.
    """

    def __init__(self, generators, field: FiniteField, n: int,
                 scalars=(1,), name=None, cap=DEFAULT_CAP):
        units = set(scalars)
        if not (len(units) == len(scalars) and 1 in units and all(0 < a < field.q for a in units)
                and all(field.mul(a, b) in units for a in units for b in units)):
            raise InvalidParameterError(f"scalars {scalars} are not a subgroup of "
                                        f"the units of {field}")
        if any(len(g) != n or any(len(row) != n for row in g) for g in generators):
            raise InvalidParameterError(f"generators are not {n}x{n} matrices")
        if not all(isinstance(c, Integral) and 0 <= c < field.q
                   for g in generators for row in g for c in row):
            raise InvalidParameterError(f"generators hold codes outside {field}")
        codes = np.array(generators, dtype=np.intp).reshape(-1, n, n)
        # a singular generator makes a walk whose structure passes never end
        add_t, mul_t = field.np_tables()
        if (_bdet(add_t, mul_t, np.array(field.neg_row, dtype=np.uint16), codes) == 0).any():
            raise InvalidParameterError("generators are not invertible")
        # the walk looks generators up among least multiples
        mr = field.mul_rows
        super().__init__([min(tuple(tuple(mr[s][x] for x in row) for row in g) for s in scalars)
                          for g in generators], name=name, cap=cap)
        self.field = field
        self.n = n
        self.scalars = scalars

    def _walk(self):
        """The closure on packed keys and the kept generators' row tables.

        Each chunk of products is deduplicated by _unique, one unstable
        argsort, and looked up in the sorted key array, into which _merge
        scatters the new keys; neither runs a stable sort.  The lookup gives
        the position each product lands on, and the first product to reach a
        new key its parent and letter.  elements is the keys in position
        order; the sorted keys live only as long as the walk.
        A kept generator h has a row table of s*h for each s in scalars (h's
        read through s*I's), and a product's key is the least over the scalars.
        Raises CapExceededError past the cap, checked after each chunk.
        """
        n, q, nz = self.n, self.field.q, len(self.scalars)
        width = key_bits(q, n) * n  # bits of one row, the key's last row lowest
        scales = [row_table(self.field, np.diag([z] * n)) for z in self.scalars]
        gens = self.generators
        gen_keys = pack_keys(np.array(gens, dtype=np.uint16).reshape(-1, n, n), q)
        keys = pack_keys(np.eye(n, dtype=np.uint16)[None], q)  # sorted; I is least among s*I
        positions = np.zeros(1, dtype=np.int32)  # element position of each key
        stored, count, start = [keys], 1, 0
        kept, row_tables, table = [], keys[:0], []  # table[k]: R's row k in pieces, by position
        parent, letter, layers = [np.zeros(1, dtype=np.int32)], [np.zeros(1, dtype=np.int32)], [1]
        while True:
            # the next generator not already in the subgroup
            missing = np.flatnonzero(~_locate(keys, gen_keys[start:])[1])
            if not missing.size:
                break
            start += int(missing[0])
            kept.append(start)
            t = row_table(self.field, gens[start])
            row_tables = np.concatenate([row_tables] + [scale[t] for scale in scales])
            table.append([])
            frontier, first, mults = np.concatenate(stored), 0, np.array([len(kept) - 1])
            while len(frontier):
                fresh, letter_tables = [], mults * nz + np.arange(nz)[:, None, None]
                for s in range(0, len(frontier), _CHUNK):
                    x, prod = frontier[s:s + _CHUNK, None], np.uint64(0)
                    for shift in np.arange(n, dtype=np.uint64) * np.uint64(width):
                        rows = (x >> shift & np.uint64((1 << width) - 1)).astype(np.intp)
                        prod = prod | row_tables[letter_tables << width | rows] << shift
                    prod = prod.min(axis=0)  # over the scalars
                    cand, src, landed = _unique(prod.ravel())
                    at, found = _locate(keys, cand)
                    pos = positions[np.minimum(at, len(keys) - 1)]
                    new = cand[~found]
                    pos[~found] = np.arange(count, count + len(new))
                    landed = pos[landed].reshape(-1, len(mults))
                    for col, k in enumerate(mults):
                        table[k].append(landed[:, col])
                    if not new.size:
                        continue
                    row, col = np.divmod(src[~found], len(mults))
                    parent.append((first + s + row).astype(np.int32))
                    letter.append(mults[col].astype(np.int32))
                    keys, positions = _merge(keys, positions, at[~found], new, pos[~found])
                    count += len(new)
                    fresh.append(new)
                    if count > self.cap:
                        raise CapExceededError(self.cap)
                frontier = np.concatenate(fresh or [keys[:0]])
                if len(frontier):
                    layers.append(count)
                stored.append(frontier)
                first, mults = count - len(frontier), np.arange(len(kept))
        table = np.array([np.concatenate(row) for row in table], dtype=np.int32)
        return Closure(np.concatenate(stored), [gens[i] for i in kept],
                       table.reshape(len(kept), count), np.concatenate(parent),
                       np.concatenate(letter), layers)


# -- classical constructors --------------------------------------------------------
# The builders take parameters that classical_order has validated.


def _field_params(q: int, double: bool = False) -> tuple:
    """(p, k) of GF(q), or of GF(q^2) when double.

    The field's size is checked against MAX_FIELD_SIZE before q is factored.
    """
    size = q * q if double else q
    if size > MAX_FIELD_SIZE:
        raise InvalidParameterError(f"field size {size} exceeds the supported maximum "
                                    f"MAX_FIELD_SIZE = {MAX_FIELD_SIZE}")
    pp = prime_power(q)
    if pp is None:
        raise InvalidParameterError(f"{q} is not a prime power")
    p, k = pp
    return p, 2 * k if double else k


def classical_order(family: str, n: int, q: int) -> int:
    """Order formula for SL/PSL/SU/PSU of degree n over GF(q).

    Also validates the parameters for the constructors, allocating nothing:
    the degree is supported and q is a prime power whose field (GF(q^2) for
    SU and PSU) is within MAX_FIELD_SIZE.  (P)SU(3,2) is refused, see below.
    """
    if family not in ("SL", "PSL", "SU", "PSU"):
        raise InvalidParameterError(f"unsupported classical family {family!r}")
    unitary = family in ("SU", "PSU")
    degrees = (3, 4) if unitary else (2, 3, 4)
    if n not in degrees:
        raise InvalidParameterError(f"{family} degree {n} unsupported (need one of {degrees})")
    _field_params(q, unitary)
    if unitary and (n, q) == (3, 2):
        raise InvalidParameterError(f"{family}(3,2) unsupported: its unitary transvections "
                                    "generate a subgroup of order 54, not all of SU(3,2) (216)")
    sign = -1 if unitary else 1
    m = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        m *= q**i - sign**i
    return m // math.gcd(n, q - sign) if family in ("PSL", "PSU") else m


def sl_generators(n: int, field: FiniteField) -> list:
    """Elementary transvections I + lambda*E_ij over an additive field basis, as rows."""
    return [tuple(tuple(lam if (a, b) == (i, j) else int(a == b) for b in range(n))
                  for a in range(n))
            for i, j in permutations(range(n), 2) for lam in (field.p**t for t in range(field.k))]


def su_generators(n: int, field: FiniteField) -> list:
    """Unitary transvections for SU(n, q), as rows over field = GF(q^2).

    One transvection per (isotropic projective point v, scalar lambda with
    lambda^q = -lambda, lambda != 0), points in lexicographic order and
    lambda ascending within each; the matrix is I + lambda * v * (v^s)^T J,
    which preserves the antidiagonal Hermitian form and has determinant 1.
    The point search and both checks run batched on the field's tables.
    """
    add_t, mul_t = field.np_tables()
    q = field.p ** (field.k // 2)
    conj = np.array([field.pow(c, q) for c in range(field.q)], dtype=np.uint16)
    neg = np.array(field.neg_row, dtype=np.uint16)
    codes = np.arange(1, field.q)
    lambdas = codes[conj[codes] == neg[codes]]
    v = np.indices((field.q,) * n, dtype=np.uint16).reshape(n, -1).T  # lexicographic
    v = v[v[np.arange(len(v)), (v != 0).argmax(axis=1)] == 1]  # first nonzero entry 1
    w = conj[v[:, ::-1]]  # w[a] = conj(v[n-1-a])
    h = mul_t[v[:, 0], w[:, 0]]
    for a in range(1, n):
        h = add_t[h, mul_t[v[:, a], w[:, a]]]
    v, w = v[h == 0], w[h == 0]  # isotropic: h(v, v) = sum_a v[a] * conj(v[n-1-a]) = 0
    g = mul_t[mul_t[lambdas[:, None, None], v[:, None, :, None]], w[:, None, None, :]]
    diag = np.arange(n)
    g[..., diag, diag] = add_t[g[..., diag, diag], 1]
    g = g.reshape(-1, n, n)
    form = _bmul(add_t, mul_t, conj[g].swapaxes(-1, -2), g[:, ::-1])  # g* J g
    assert (form == np.eye(n, dtype=np.uint16)[::-1]).all(), "a transvection failed the form check"
    assert (_bdet(add_t, mul_t, neg, g) == 1).all(), "a transvection's determinant is not 1"
    return [tuple(map(tuple, rows)) for rows in g.tolist()]


def classical_scalars(family: str, n: int, q: int, field: FiniteField) -> tuple:
    """The scalars s*I of SL or SU(n, q) that the P-group is taken modulo, as
    codes in field: s^n = 1, and s^(q+1) = 1 (s times its conjugate s^q) for
    PSU; s^(q-1) = 1 holds for all s in GF(q)*.  (1,) for SL and SU."""
    if not family.startswith("P"):
        return (1,)
    e = q + 1 if family == "PSU" else q - 1
    return tuple(s for s in range(1, field.q) if field.pow(s, n) == field.pow(s, e) == 1)


def classical_group(family: str, n: int, q: int, cap=DEFAULT_CAP) -> MatrixGroup:
    """SL, PSL, SU or PSU of degree n over GF(q), checked against its order
    formula; PSL and PSU walk SL and SU modulo classical_scalars."""
    order = classical_order(family, n, q)
    unitary = family.endswith("SU")
    key_bits(q * q if unitary else q, n)  # before anything is built
    field = FiniteField(*_field_params(q, unitary))
    gens = su_generators(n, field) if unitary else sl_generators(n, field)
    grp = MatrixGroup(gens, field, n, classical_scalars(family, n, q, field),
                      name=f"{family}({n},{q})", cap=cap)
    _check_order(grp, order)
    return grp


def _check_order(grp: MatrixGroup, expected: int):
    got = grp.order()
    if got != expected:
        raise OrderMismatchError(
            f"{grp.name}: closure produced {got} elements, formula says {expected}"
        )
