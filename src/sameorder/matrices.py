"""Matrix groups over finite fields: SL, PSL, SU, PSU.

Elements are dense n x n matrices of field codes.  All arithmetic indexes the
field's dense add/mul tables: single products go through their Python rows,
and groups built here replace the generic subgroup, order, and conjugation
paths with numpy batches over the same tables.

Inside a MatrixGroup an element is identified by its packed key: the n*n
codes, (q-1).bit_length() bits each, in one uint64 with the first entry in
the highest bits, so key order is the row-major lexicographic order of the
matrices.  A group stores its elements as uint16 rows, and its element index
is the sorted key array with the position of each key; batches of products
are deduplicated and looked up in one numpy pass.  MatrixElement objects are
built only when a caller asks for them (elements(), membership, tests).  A
key holds at most 64 bits, so n^2 * bits <= 64 is checked before a group is
built; no group within the default cap comes close.

Projective groups (PSL, PSU) represent each coset of the scalar subgroup by
the unique scalar multiple whose first nonzero entry in row-major order is 1,
multiplying and renormalizing.  Two special linear matrices normalize to the
same representative exactly when they differ by a scalar of determinant one,
so the construction realizes the quotient faithfully.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import product

import numpy as np

from .core import DEFAULT_CAP, Group, GroupElement
from .errors import InvalidParameterError, OrderMismatchError
from .fields import FiniteField, field_make, field_size
from .numtheory import prime_power


def mat_identity_rows(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(field: FiniteField, a, b) -> tuple:
    n = len(a)
    mr = field.mul_rows
    ar = field.add_rows
    out = []
    for i in range(n):
        ai = a[i]
        row = []
        for j in range(n):
            s = 0
            for k in range(n):
                s = ar[s][mr[ai[k]][b[k][j]]]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def mat_inv(field: FiniteField, rows) -> tuple:
    """Gauss-Jordan inverse; group elements are invertible by construction."""
    n = len(rows)
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            raise InvalidParameterError("matrix is singular")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        s = field.inv(aug[col][col])
        aug[col] = [field.mul(s, x) for x in aug[col]]
        pivrow = aug[col]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(aug[r], pivrow)]
    return tuple(tuple(row[n:]) for row in aug)


def mat_det(field: FiniteField, rows) -> int:
    n = len(rows)
    m = [list(r) for r in rows]
    det = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = field.neg(det)
        det = field.mul(det, m[col][col])
        sinv = field.inv(m[col][col])
        for r in range(col + 1, n):
            if m[r][col]:
                f = field.mul(sinv, m[r][col])
                m[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[r], m[col])]
    return det


def mat_normalize(field: FiniteField, rows) -> tuple:
    """Scale so the first nonzero entry in row-major order is 1."""
    for row in rows:
        for x in row:
            if x:
                if x == 1:
                    return rows
                s = field.inv(x)
                return tuple(tuple(field.mul(s, y) for y in r) for r in rows)
    raise InvalidParameterError("zero matrix cannot be normalized")


class MatrixElement(GroupElement):
    __slots__ = ("field", "rows", "projective", "_key")

    def __init__(self, field: FiniteField, rows, projective: bool = False):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.projective = projective
        self._key = None

    def op(self, other: "MatrixElement") -> "MatrixElement":
        prod = mat_mul(self.field, self.rows, other.rows)
        if self.projective:
            prod = mat_normalize(self.field, prod)
        return MatrixElement(self.field, prod, self.projective)

    def inv(self) -> "MatrixElement":
        r = mat_inv(self.field, self.rows)
        if self.projective:
            r = mat_normalize(self.field, r)
        return MatrixElement(self.field, r, self.projective)

    def key(self) -> int:
        # the packed key pack_keys gives a numpy batch, so single elements
        # and batches land in the same index
        if self._key is None:
            rows = np.array(self.rows, dtype=np.uint16)
            self._key = int(pack_keys(rows, self.field.q))
        return self._key

    def det(self) -> int:
        return mat_det(self.field, self.rows)

    def __repr__(self):
        return f"Matrix{self.rows}"


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


def _key_shifts(q: int, n: int):
    bits = key_bits(q, n)
    return np.arange(n * n - 1, -1, -1, dtype=np.uint64) * np.uint64(bits), bits


def pack_keys(codes, q: int):
    """Packed uint64 keys of matrices over GF(q), shape (..., n, n) -> (...).

    Entries never overlap, so the dot product with the place values is an
    exact bitwise concatenation, first entry highest.
    """
    n = codes.shape[-1]
    shifts, _ = _key_shifts(q, n)
    flat = codes.reshape(codes.shape[:-2] + (n * n,)).astype(np.uint64)
    return flat @ (np.uint64(1) << shifts)


def unpack_keys(keys, q: int, n: int):
    """The uint16 matrices, shape (m, n, n), of m packed keys."""
    shifts, bits = _key_shifts(q, n)
    mask = np.uint64((1 << bits) - 1)
    return ((keys[:, None] >> shifts) & mask).astype(np.uint16).reshape(-1, n, n)


def _locate(sorted_keys, keys):
    """Insertion points of keys in a nonempty sorted key array, and which are there."""
    at = np.searchsorted(sorted_keys, keys)
    found = sorted_keys[np.minimum(at, len(sorted_keys) - 1)] == keys
    return at, found


class KeyIndex:
    """Element positions by packed key: the sorted keys and their positions."""

    __slots__ = ("keys", "positions")

    def __init__(self, keys, positions):
        self.keys = keys
        self.positions = positions

    def lookup(self, keys):
        """Positions of an array of keys, all of which must be present."""
        at, found = _locate(self.keys, keys)
        if not found.all():
            raise KeyError("key not in the group")
        return self.positions[at]

    def __getitem__(self, key) -> int:
        return int(self.lookup(np.array([key], dtype=np.uint64))[0])

    def __contains__(self, key) -> bool:
        return bool(_locate(self.keys, np.array([key], dtype=np.uint64))[1][0])

    def __len__(self):
        return len(self.keys)


class MatrixElements(Sequence):
    """A matrix group's elements as uint16 rows; each access builds a MatrixElement."""

    def __init__(self, rows, field: FiniteField, projective: bool):
        self.rows = rows
        self.field = field
        self.projective = projective

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return MatrixElement(self.field, self.rows[i].tolist(), self.projective)

    def __iter__(self):
        for r in self.rows.tolist():
            yield MatrixElement(self.field, r, self.projective)


# -- batched table arithmetic -----------------------------------------------------


def _bmul(add_t, mul_t, a, b):
    """Batched matrix product C[..., i, j] = sum_k A[..., i, k] B[..., k, j].

    Leading dimensions broadcast; entries are field codes indexed through the
    dense add/mul tables.
    """
    p = mul_t[a[..., :, :, None], b[..., None, :, :]]
    out = p[..., 0, :]
    for k in range(1, p.shape[-2]):
        out = add_t[out, p[..., k, :]]
    return out


def _bnormalize(mul_t, inv_t, m):
    shape = m.shape
    flat = m.reshape(shape[:-2] + (shape[-1] * shape[-2],))
    first = (flat != 0).argmax(axis=-1)
    lead = np.take_along_axis(flat, first[..., None], axis=-1)[..., 0]
    return mul_t[inv_t[lead][..., None], flat].reshape(shape)


_CHUNK = 2048


class MatrixGroup(Group):
    """Group of matrices over one field, with vectorized internals."""

    def __init__(self, generators, field: FiniteField, n: int,
                 projective: bool = False, name=None, cap=DEFAULT_CAP):
        ident = MatrixElement(field, mat_identity_rows(n), projective)
        super().__init__(generators, ident, name=name, cap=cap)
        self.field = field
        self.n = n
        self.projective = projective

    def _subgroup(self, gens, stop_size=None):
        """Group._subgroup on numpy batches over the field tables.

        gens is a list of MatrixElements or a MatrixElements view.  Each
        chunk of products is packed, deduplicated with a 1-D np.unique and
        looked up in the sorted key array, into which the new keys are
        merged; elements is a MatrixElements view and index a KeyIndex.
        """
        add_t, mul_t, inv_t = self.field.np_tables()
        n, q = self.n, self.field.q
        if isinstance(gens, MatrixElements):
            gen_rows = gens.rows
        else:
            gen_rows = np.array([g.rows for g in gens], dtype=np.uint16).reshape(-1, n, n)
        gen_keys = pack_keys(gen_rows, q)
        ident = np.array(self.identity.rows, dtype=np.uint16)[None]
        keys = pack_keys(ident, q)  # sorted
        positions = np.zeros(1, dtype=np.int64)  # element position of each key
        stored = [ident]
        count = 1
        kept = []
        start = 0
        while True:
            # the next generator not already in the subgroup
            missing = np.flatnonzero(~_locate(keys, gen_keys[start:])[1])
            if not missing.size:
                break
            start += int(missing[0])
            kept.append(start)
            kept_rows = gen_rows[kept]
            frontier, mults = np.concatenate(stored), kept_rows[-1:]
            while len(frontier):
                fresh = []
                for s in range(0, len(frontier), _CHUNK):
                    prod = _bmul(add_t, mul_t, frontier[s:s + _CHUNK, None], mults[None])
                    if self.projective:
                        prod = _bnormalize(mul_t, inv_t, prod)
                    cand = np.unique(pack_keys(prod, q).ravel())
                    at, found = _locate(keys, cand)
                    new = cand[~found]
                    if not new.size:
                        continue
                    keys = np.insert(keys, at[~found], new)
                    positions = np.insert(positions, at[~found],
                                          np.arange(count, count + len(new)))
                    count += len(new)
                    fresh.append(new)
                    if self._passes(count, stop_size):
                        return None
                frontier = unpack_keys(np.concatenate(fresh or [keys[:0]]), q, n)
                stored.append(frontier)
                mults = kept_rows
        elems = MatrixElements(np.concatenate(stored), self.field, self.projective)
        return elems, KeyIndex(keys, positions), [gens[i] for i in kept]

    def _members(self, indices):
        return MatrixElements(self._np_elements()[indices], self.field, self.projective)

    def _np_elements(self):
        return self.elements().rows

    def _compute_orders(self):
        add_t, mul_t, inv_t = self.field.np_tables()
        e = self._np_elements()
        total = len(e)
        flat = e.reshape(total, -1)
        ident = flat[0]
        orders = np.zeros(total, dtype=np.int64)
        done = (flat == ident).all(axis=1)
        orders[done] = 1
        remaining = np.nonzero(~done)[0]
        cur = e.copy()
        k = 1
        while remaining.size:
            k += 1
            if k > total:
                raise AssertionError("power walk exceeded the group order")
            sub = _bmul(add_t, mul_t, cur[remaining], e[remaining])
            if self.projective:
                sub = _bnormalize(mul_t, inv_t, sub)
            cur[remaining] = sub
            hit = (sub.reshape(len(remaining), -1) == ident).all(axis=1)
            orders[remaining[hit]] = k
            remaining = remaining[~hit]
        return orders.tolist()

    def _conjugation_maps(self):
        add_t, mul_t, inv_t = self.field.np_tables()
        e = self._np_elements()
        index = self.element_index()
        maps = []
        for a in self.reduced_generators():
            arr = np.array(a.rows, dtype=np.uint16)[None]
            ainv = np.array(a.inv().rows, dtype=np.uint16)[None]
            conj = _bmul(add_t, mul_t, _bmul(add_t, mul_t, ainv, e), arr)
            if self.projective:
                conj = _bnormalize(mul_t, inv_t, conj)
            maps.append(index.lookup(pack_keys(conj, self.field.q)).tolist())
        return maps


# -- classical constructors --------------------------------------------------------


def _field_params(q: int, double: bool = False) -> tuple:
    """(p, k) of GF(q), or of GF(q^2) when double."""
    pp = prime_power(q)
    if pp is None:
        raise InvalidParameterError(f"{q} is not a prime power")
    p, k = pp
    return p, 2 * k if double else k


def classical_order(family: str, n: int, q: int) -> int:
    """Order formula for SL/PSL/SU/PSU of degree n over GF(q).

    Also validates the parameters for the constructors, allocating nothing:
    the degree is supported and q is a prime power whose field (GF(q^2) for
    SU and PSU) is within MAX_FIELD_SIZE.
    """
    if family not in ("SL", "PSL", "SU", "PSU"):
        raise InvalidParameterError(f"unsupported classical family {family!r}")
    unitary = family in ("SU", "PSU")
    degrees = (3, 4) if unitary else (2, 3, 4)
    if n not in degrees:
        raise InvalidParameterError(f"{family} degree {n} unsupported (need one of {degrees})")
    field_size(*_field_params(q, unitary))
    sign = -1 if unitary else 1
    m = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        m *= q**i - sign**i
    return m // math.gcd(n, q - sign) if family in ("PSL", "PSU") else m


def sl_generators(n: int, field: FiniteField) -> list:
    """Elementary transvections I + lambda*E_ij over an additive field basis."""
    classical_order("SL", n, field.q)  # validates n
    lambdas = [field.p**t for t in range(field.k)]
    gens = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for lam in lambdas:
                rows = [list(r) for r in mat_identity_rows(n)]
                rows[i][j] = lam
                gens.append(MatrixElement(field, rows))
    return gens


def hermitian_product(field: FiniteField, q: int, x, y) -> int:
    """h(x, y) = sum_a x[a] * conj(y[n-1-a]), conjugation being t -> t^q."""
    n = len(x)
    s = 0
    for a in range(n):
        s = field.add(s, field.mul(x[a], field.pow(y[n - 1 - a], q)))
    return s


def preserves_form(g: MatrixElement, q: int) -> bool:
    """Whether g* J g = J for the antidiagonal form (g* = conjugate transpose)."""
    field, rows = g.field, g.rows
    n = len(rows)
    for a in range(n):
        for b in range(n):
            s = 0
            for c in range(n):
                s = field.add(s, field.mul(field.pow(rows[c][a], q), rows[n - 1 - c][b]))
            if s != (1 if a + b == n - 1 else 0):
                return False
    return True


def su_generators(n: int, q: int, field: FiniteField | None = None) -> list:
    """Unitary transvections for SU(n, q) on GF(q^2).

    One transvection per (isotropic projective point v, scalar lambda with
    lambda^q = -lambda, lambda != 0); the matrix is I + lambda * v * (v^s)^T J,
    which preserves the antidiagonal Hermitian form and has determinant 1.
    """
    classical_order("SU", n, q)  # validates n and q
    if field is None:
        field = field_make(*_field_params(q, double=True))
    lambdas = [
        lam for lam in range(1, field.q) if field.pow(lam, q) == field.neg(lam)
    ]
    points = []
    for v in product(range(field.q), repeat=n):
        nz = next((x for x in v if x), None)
        if nz != 1:
            continue  # zero vector, or not the scaled projective representative
        if hermitian_product(field, q, v, v) == 0:
            points.append(v)
    gens = []
    for v in points:
        for lam in lambdas:
            rows = []
            for a in range(n):
                va = field.mul(lam, v[a])
                row = []
                for b in range(n):
                    x = field.mul(va, field.pow(v[n - 1 - b], q))
                    if a == b:
                        x = field.add(x, 1)
                    row.append(x)
                rows.append(tuple(row))
            g = MatrixElement(field, rows)
            assert preserves_form(g, q), "transvection failed the form check"
            assert g.det() == 1, "transvection determinant is not 1"
            gens.append(g)
    return gens


def sl_group(n: int, q: int, cap=DEFAULT_CAP, field: FiniteField | None = None) -> MatrixGroup:
    order = classical_order("SL", n, q)
    key_bits(q, n)  # before anything is built
    if field is None:
        field = field_make(*_field_params(q))
    grp = MatrixGroup(sl_generators(n, field), field, n, name=f"SL({n},{q})", cap=cap)
    _check_order(grp, order)
    return grp


def su_group(n: int, q: int, cap=DEFAULT_CAP) -> MatrixGroup:
    order = classical_order("SU", n, q)
    key_bits(q * q, n)  # before su_generators walks GF(q^2)^n
    field = field_make(*_field_params(q, double=True))
    grp = MatrixGroup(su_generators(n, q, field), field, n, name=f"SU({n},{q})", cap=cap)
    _check_order(grp, order)
    return grp


def projectivize(parent: MatrixGroup, name=None) -> MatrixGroup:
    """Quotient by scalars: renormalized generators, projective multiplication."""
    if parent.projective:
        return parent
    gens = [
        MatrixElement(parent.field, mat_normalize(parent.field, g.rows), True)
        for g in parent.generators
    ]
    return MatrixGroup(gens, parent.field, parent.n, projective=True,
                       name=name or (f"P{parent.name}" if parent.name else None),
                       cap=parent.cap)


def psl_group(n: int, q: int, cap=DEFAULT_CAP, field: FiniteField | None = None) -> MatrixGroup:
    grp = projectivize(sl_group(n, q, cap=cap, field=field), name=f"PSL({n},{q})")
    _check_order(grp, classical_order("PSL", n, q))
    return grp


def psu_group(n: int, q: int, cap=DEFAULT_CAP) -> MatrixGroup:
    grp = projectivize(su_group(n, q, cap=cap), name=f"PSU({n},{q})")
    _check_order(grp, classical_order("PSU", n, q))
    return grp


def _check_order(grp: MatrixGroup, expected: int):
    got = grp.order()
    if got != expected:
        raise OrderMismatchError(
            f"{grp.name}: closure produced {got} elements, formula says {expected}"
        )
