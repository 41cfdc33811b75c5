"""Matrix groups over finite fields: SL, PSL, SU, PSU.

A generator is an n x n matrix given as its rows of field codes.  After the
closure the group lives in index space (see core) and reads no field table
again.

Inside a MatrixGroup an element is its packed key: the n*n codes,
(q-1).bit_length() bits each, in one uint64 with the first entry highest,
so key order is row-major lexicographic order.  A group stores its elements
as keys alone, in position order, and pack_keys is the one place that packs
them.  n^2 * bits <= 64 is checked before a group is built.  Row i of
x * h is (row i of x) * h, so the closure multiplies by a kept generator h
with one lookup per row of x's key in h's row table.  The walk goes round
by round, a round one batch per frontier chunk and kept generator, at two
speeds, switching once.  A round of fewer than _SMALL products, as each
power of the first kept generator is (one product a round), runs in plain
Python on int keys, a dict and Python lists of the row tables, where
numpy's per-call cost would exceed the work.  From the first larger round
on, the walk runs in numpy on a sorted key array, which is dropped when the
walk ends.  A batch holds no key twice (right multiplication is one-to-one),
so it needs no dedupe: it is argsorted once, located in the sorted keys
with one searchsorted (_locate), and its new keys are merged in with one
scatter (_merge), where np.insert would run a stable sort.

classical_group, the one constructor, builds its own field: GF(q) for SL and
PSL, GF(q^2) for SU and PSU, each with the one modulus that
fields.FiniteField uses.  Where the family has more than two generators
(transvections), it puts two fixed words of 16 letters in them in front
(_words), a standard step of computational group theory: two random
elements of a (quasi)simple group almost always generate it, so the walk,
which keeps each generator not already in the subgroup, keeps the words and
skips the transvections, and multiplies every element by two generators a
round instead of up to six.  Should the words generate a proper subgroup,
the walk keeps the transvections it still lacks.

A MatrixGroup is a group of matrices modulo a subgroup Z of scalars, given
as field codes; a linear group has Z = (1,).  Each coset xZ is represented
by its member with the least packed key, which is also the least rows tuple.
The group replaces each generator by that member, the argmin over the keys
of all its multiples (one gather from the mul table).  The walk takes the
least multiple of x * h as x * (s*h), from the row table of s*h, with s read
off the first row of x * h: row 0 of an invertible matrix is nonzero, so its
multiples differ there, and s*y is least where s*(row 0 of y) is, one choice
per row code taken before the walk; a linear walk multiplies by h alone.
PSL and PSU are SL and SU modulo the scalars they contain, gcd(n, q - 1) of
them (gcd(n, q + 1) for PSU).  With Z all of GF(q)* the least multiple is
the one whose first nonzero entry in row-major order is 1.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from numbers import Integral

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
    import numpy as np
    n = codes.shape[-1]
    flat = codes.reshape(codes.shape[:-2] + (codes.shape[-2] * n,)).astype(np.uint64)
    shifts = np.arange(flat.shape[-1] - 1, -1, -1, dtype=np.uint64) * np.uint64(key_bits(q, n))
    return flat @ (np.uint64(1) << shifts)


def _locate(sorted_keys, keys):
    """Insertion points of keys in a nonempty sorted key array, and the
    indices of the keys that are not there."""
    import numpy as np
    at = np.searchsorted(sorted_keys, keys)
    return at, np.flatnonzero(sorted_keys.take(at, mode="clip") != keys)


def _merge(sorted_keys, positions, at, new, new_positions):
    """np.insert(sorted_keys, at, new) and np.insert(positions, at,
    new_positions) for ascending at, by one scatter each way: new key i lands
    at at[i] + i, and the old keys fill the other slots in order."""
    import numpy as np
    dest = at + np.arange(len(new))
    old = np.ones(len(sorted_keys) + len(new), dtype=bool)
    old[dest] = False
    keys, pos = np.empty(len(old), dtype=sorted_keys.dtype), np.empty(len(old), dtype=positions.dtype)
    keys[dest], keys[old] = new, sorted_keys
    pos[dest], pos[old] = new_positions, positions
    return keys, pos


# -- batched table arithmetic -----------------------------------------------------


def _bmul(field: FiniteField, a, b):
    """Batched matrix product C[..., i, j] = sum_k A[..., i, k] B[..., k, j] of
    field codes, leading dimensions broadcasting: per k, one gather from the
    flattened mul table at a * q + b and one from the flattened add table."""
    import numpy as np
    q = field.q
    add_f, mul_f = field.add.ravel(), field.mul.ravel()
    a = a.astype(np.intp) * q
    out = mul_f[a[..., :, 0, None] + b[..., None, 0, :]]
    for k in range(1, a.shape[-1]):
        p = mul_f[a[..., :, k, None] + b[..., None, k, :]]
        out = add_f[np.multiply(out, q, dtype=np.intp) + p]
    return out


def _bdet(field: FiniteField, m):
    """Batched determinant of n x n blocks of field codes, shape (..., n, n) -> (...),
    by the Leibniz sum over the n! permutations, each term a product of n
    table gathers (n <= 4 here), negated for an odd permutation."""
    import numpy as np
    n = m.shape[-1]
    det = np.zeros(m.shape[:-2], dtype=np.uint16)
    for perm in permutations(range(n)):
        term = m[..., 0, perm[0]]
        for i in range(1, n):
            term = field.mul[term, m[..., i, perm[i]]]
        if sum(a > b for a, b in combinations(perm, 2)) % 2:
            term = field.neg[term]
        det = field.add[det, term]
    return det


def row_table(field: FiniteField, h):
    """T_h[c] = packed row v * h for each row v packed as c, from one _bmul over
    all 2^(bits * n) codes; a code naming no row (q not a power of two) gets
    a stand-in with clipped entries, never read."""
    import numpy as np
    n, q = len(h), field.q
    rows = np.indices((1 << key_bits(q, n),) * n, dtype=np.uint16).reshape(n, -1).T[:, None]
    return pack_keys(_bmul(field, np.minimum(rows, q - 1), np.array(h)), q)


_CHUNK = 65536
# A round of fewer products than this runs in plain Python; numpy's per-call
# cost exceeds the Python loop's there.
_SMALL = 128


class MatrixGroup(Group):
    """Matrices over one field modulo scalars, the codes of a subgroup of its units.

    Raises InvalidParameterError when scalars are not that: distinct integer
    codes of units, holding 1, closed under multiplication; and when a
    generator is not an invertible n x n matrix of codes of the field.
    """

    def __init__(self, generators, field: FiniteField, n: int,
                 scalars=(1,), name=None, cap=DEFAULT_CAP):
        import numpy as np
        if not (all(isinstance(a, Integral) and 0 < a < field.q for a in scalars)
                and len(set(scalars)) == len(scalars) and 1 in scalars
                and set(field.mul[np.ix_(scalars, scalars)].flat) <= set(scalars)):
            raise InvalidParameterError(f"scalars {scalars} are not a subgroup of "
                                        f"the units of {field}")
        if any(len(g) != n or any(len(row) != n for row in g) for g in generators):
            raise InvalidParameterError(f"generators are not {n}x{n} matrices")
        try:  # one array of all the codes: an integer dtype unless some code is no integer
            codes = np.array(generators)
        except ValueError:  # a code that is a sequence of ragged length
            codes = np.array(None)
        if len(generators) and not (codes.ndim == 3 and codes.dtype.kind in "iu"
                                    and codes.min() >= 0 and codes.max() < field.q):
            raise InvalidParameterError(f"generators hold codes outside {field}")
        codes = codes.reshape(-1, n, n).astype(np.intp)
        # a singular generator makes a walk whose structure passes never end
        if (_bdet(field, codes) == 0).any():
            raise InvalidParameterError("generators are not invertible")
        # the walk looks generators up among least multiples
        multiples = field.mul[np.array(scalars, dtype=np.intp)[:, None, None, None], codes]
        least = multiples[pack_keys(multiples, field.q).argmin(axis=0), np.arange(len(codes))]
        super().__init__([tuple(map(tuple, g)) for g in least.tolist()], name=name, cap=cap)
        self.field = field
        self.n = n
        self.scalars = scalars

    def _walk(self):
        """The closure on packed keys and the kept generators' row tables.

        A new generator multiplies every element known so far once, and the
        elements it brings in then take every kept generator until nothing
        new appears.  A round takes one batch per frontier chunk and kept
        generator h, as PermutationGroup._walk does; a batch holds no key
        twice, and its unknown keys are new elements, numbered in key order,
        each with its one product as parent.  Rounds of fewer than _SMALL
        products run in Python on a dict from key to position.  At the first
        larger round the dict becomes sorted key and position arrays, once,
        and every later batch runs in numpy: the chunk's row codes serve all
        its batches, and a batch is argsorted once, located in the sorted
        keys (_locate) and merged into them (_merge).  Both speeds give the
        same Closure.  Modulo scalars a kept generator h has a row table of
        s*h for each s in scalars, and x * h is read off the table of the s
        that least names for its first row (module docstring).  Raises
        CapExceededError past the cap, checked after each batch.
        """
        import numpy as np
        n, q, nz = self.n, self.field.q, len(self.scalars)
        width = key_bits(q, n) * n  # bits of one row, the key's last row lowest
        mask, shifts = (1 << width) - 1, range(width * (n - 1), -1, -width)  # first row first
        scales = [row_table(self.field, np.diag([z] * n)) for z in self.scalars if z != 1]
        # least[c]: which of v, s*v for s in scales is least, for the row v coded c
        least = np.array([np.arange(mask + 1, dtype=np.uint64)] + scales).argmin(axis=0).tolist()

        gens = self.generators
        gen_keys = pack_keys(np.array(gens, dtype=np.uint16).reshape(-1, n, n), q)
        elements = pack_keys(np.eye(n, dtype=np.uint16)[None], q).tolist()  # I is least among s*I
        index, count, start, done = {elements[0]: 0}, 1, 0, False  # index: key -> position
        kept, row_tables, lists = [], gen_keys[:0], []  # lists: the Python speed's tables
        parent, letter, layers, table = [0], [0], [1], []  # table[k]: R's row k, by position
        frontier, first, mults = [], 0, []

        while True:
            if not len(frontier):  # the next generator not already in the subgroup
                rest = gen_keys[start:]
                missing = (_locate(keys, rest)[1] if index is None
                           else [i for i, y in enumerate(rest.tolist()) if y not in index])
                done = not len(missing)
                if not done:
                    start += int(missing[0])
                    kept.append(start)
                    t = row_table(self.field, gens[start])
                    tables = [t] + [scale[t] for scale in scales]
                    row_tables = np.concatenate([row_tables] + tables)
                    table.append([])
                    frontier = list(elements) if index is not None else np.concatenate(stored)
                    first, mults = 0, [len(kept) - 1]
            if index is not None and (done or len(frontier) * len(mults) >= _SMALL):
                # to the numpy speed, once: its arrays from the Python speed's lists
                stored = [np.array(elements, dtype=np.uint64)]
                positions = np.argsort(stored[0]).astype(np.int32)
                keys, frontier = stored[0][positions], stored[0][first:]
                parent, letter = [np.array(parent, dtype=np.int32)], [np.array(letter, dtype=np.int32)]
                table = [[np.array(row, dtype=np.int32)] for row in table]
                index, lists, least = None, None, np.array(least)  # the dict and lists go
            if done:
                break
            if index is not None:
                if len(lists) < len(kept):  # the stage of the generator just kept
                    lists.append([t.tolist() for t in tables])
                for s in range(0, len(frontier), _CHUNK):
                    chunk = frontier[s:s + _CHUNK]
                    for k in mults:
                        # x * h's least multiple is x * (s*h), s named by its first row
                        ts, ys = lists[k], []
                        for x in chunk:
                            t, y = ts[least[ts[0][x >> shifts[0]]]], 0
                            for shift in shifts:
                                y |= t[x >> shift & mask] << shift
                            ys.append(y)
                        pos = list(map(index.get, ys))
                        if None in pos:
                            miss = [i for i, p in enumerate(pos) if p is None]
                            miss.sort(key=ys.__getitem__)
                            for i in miss:
                                pos[i] = index[ys[i]] = len(elements)
                                elements.append(ys[i])
                                parent.append(first + s + i)
                                letter.append(k)
                        table[k] += pos
                        if len(elements) > self.cap:
                            raise CapExceededError(self.cap)
                frontier, count = elements[count:], len(elements)
            else:
                fresh = []
                for s in range(0, len(frontier), _CHUNK):
                    x = frontier[s:s + _CHUNK]
                    codes = [(x >> np.uint64(shift) & np.uint64(mask)).astype(np.intp)
                             for shift in shifts]
                    for k in mults:
                        base = k * nz << width  # where h's table starts in row_tables
                        if scales:  # the table of s*h, s read off the first row of x * h
                            base = base + (least[row_tables[base | codes[0]]] << width)
                        prod = np.uint64(0)
                        for c, shift in zip(codes, shifts):
                            prod = prod | row_tables[base | c] << np.uint64(shift)
                        order = prod.argsort()
                        prod = prod[order]
                        at, miss = _locate(keys, prod)
                        pos = positions.take(at, mode="clip")
                        pos[miss] = np.arange(count, count + len(miss))
                        landed = np.empty_like(pos)
                        landed[order] = pos
                        table[k].append(landed)
                        if not miss.size:
                            continue
                        new = prod[miss]
                        parent.append((first + s + order[miss]).astype(np.int32))
                        letter.append(np.full(len(new), k, dtype=np.int32))
                        keys, positions = _merge(keys, positions, at[miss], new, pos[miss])
                        count += len(new)
                        fresh.append(new)
                        if count > self.cap:
                            raise CapExceededError(self.cap)
                frontier = np.concatenate(fresh or [keys[:0]])
                stored.append(frontier)
            if len(frontier):
                layers.append(count)
            first, mults = count - len(frontier), list(range(len(kept)))
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
    import numpy as np
    q = field.p ** (field.k // 2)
    conj = np.array([field.pow(c, q) for c in range(field.q)], dtype=np.uint16)
    codes = np.arange(1, field.q)
    lambdas = codes[conj[codes] == field.neg[codes]]
    v = np.indices((field.q,) * n, dtype=np.uint16).reshape(n, -1).T  # lexicographic
    v = v[v[np.arange(len(v)), (v != 0).argmax(axis=1)] == 1]  # first nonzero entry 1
    w = conj[v[:, ::-1]]  # w[a] = conj(v[n-1-a])
    h = field.mul[v[:, 0], w[:, 0]]
    for a in range(1, n):
        h = field.add[h, field.mul[v[:, a], w[:, a]]]
    v, w = v[h == 0], w[h == 0]  # isotropic: h(v, v) = sum_a v[a] * conj(v[n-1-a]) = 0
    g = field.mul[field.mul[lambdas[:, None, None], v[:, None, :, None]], w[:, None, None, :]]
    diag = np.arange(n)
    g[..., diag, diag] = field.add[g[..., diag, diag], 1]
    g = g.reshape(-1, n, n)
    form = _bmul(field, conj[g].swapaxes(-1, -2), g[:, ::-1])  # g* J g
    assert (form == np.eye(n, dtype=np.uint16)[::-1]).all(), "a transvection failed the form check"
    assert (_bdet(field, g) == 1).all(), "a transvection's determinant is not 1"
    return [tuple(map(tuple, rows)) for rows in g.tolist()]


def classical_scalars(family: str, n: int, q: int, field: FiniteField) -> tuple:
    """The scalars s*I of SL or SU(n, q) that the P-group is taken modulo, as
    codes in field: s^n = 1, and s^(q+1) = 1 (s times its conjugate s^q) for
    PSU; s^(q-1) = 1 holds for all s in GF(q)*.  (1,) for SL and SU."""
    if not family.startswith("P"):
        return (1,)
    e = q + 1 if family == "PSU" else q - 1
    return tuple(s for s in range(1, field.q) if field.pow(s, n) == field.pow(s, e) == 1)


def _words(field: FiniteField, gens) -> list:
    """Two fixed words of 16 letters in gens, as rows: letter i of word j is
    gens[(7i + 3j + j*i^2) mod len(gens)].  The letters are multiplied in a
    balanced tree, neighbours pairwise, one _bmul a level on every pair of
    both words at once: four levels in all."""
    import numpy as np
    i, j = np.arange(16)[:, None], np.arange(2)
    words = np.array(gens, dtype=np.uint16)[(7 * i + 3 * j + j * i * i) % len(gens)]
    while len(words) > 1:
        words = _bmul(field, words[0::2], words[1::2])
    return [tuple(map(tuple, w)) for w in words[0].tolist()]


def classical_group(family: str, n: int, q: int, cap=DEFAULT_CAP) -> MatrixGroup:
    """SL, PSL, SU or PSU of degree n over GF(q), checked against its order
    formula; PSL and PSU walk SL and SU modulo classical_scalars.  The
    generators are the family's transvections, after two _words in them
    when there are more than two.  An SL(2,q) or SL(3,q) atom of an
    expression is answered from q (core.SpecialLinear) instead; the walk
    here is its oracle."""
    order = classical_order(family, n, q)
    unitary = family.endswith("SU")
    key_bits(q * q if unitary else q, n)  # before anything is built
    field = FiniteField(*_field_params(q, unitary))
    gens = su_generators(n, field) if unitary else sl_generators(n, field)
    if len(gens) > 2:
        gens = _words(field, gens) + gens
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
