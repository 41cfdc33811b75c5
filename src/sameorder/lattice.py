"""Spectra as solution counts on the divisor lattice of an order.

For d dividing N, a group of order dividing N has c(d) = #{x : x^d = 1}
solutions, the sum of its spectrum s_t over t | d: the zeta transform.  For
a direct product c multiplies pointwise, since x^d = 1 iff each coordinate's
d-th power is, and the Möbius transform gives the spectrum back.  Many
products are thus one array product (verify's hunt), where
core.spectrum_direct_product convolves two spectra over lcm of orders.
Both transforms run along the prime axes of the lattice, a product of
chains, as prefix sums and differences.
"""

from __future__ import annotations

from .numtheory import factorize


class DivisorLattice:
    """The divisors of an order N = p1^e1 ... pr^er, laid out as the grid
    (e1+1) x ... x (er+1) of their exponents (the last prime's varying
    fastest), and the transforms that take spectra of groups of order
    dividing N to solution counts and back, one group to a row and one
    divisor of N to a column.

    A group's solution counts c(d) = #{x : x^d = 1}, for d | N, are the zeta
    transform of its spectrum, c(d) = sum of s_t over t | d: a prefix sum
    along each prime's axis of the grid.  They multiply pointwise over a
    direct product of order dividing N (x^d = 1 iff each coordinate's d-th
    power is 1), and the Möbius transform, a difference of neighbours along
    each axis, gives the product's spectrum back.
    """

    def __init__(self, n: int):
        fac = factorize(n)
        self.shape = tuple(e + 1 for e in fac.values())
        self.divisors = [1]
        for p, e in fac.items():
            self.divisors = [d * p**i for d in self.divisors for i in range(e + 1)]
        self.index = {d: i for i, d in enumerate(self.divisors)}

    def counts(self, spectra) -> np.ndarray:
        """The solution counts of spectra (each a Spectrum of a group of order
        dividing N), one row each, and a last row of ones, the trivial
        group's, that fills out a shorter product."""
        import numpy as np
        rows, cols, values = [], [], []
        for r, spectrum in enumerate(spectra):
            rows += [r] * len(spectrum.counts)
            cols += map(self.index.__getitem__, spectrum.counts)
            values += spectrum.counts.values()
        s = np.zeros((len(spectra) + 1, len(self.divisors)), dtype=np.int64)
        s[rows, cols] = values
        s[-1, 0] = 1
        grid = s.reshape(len(s), *self.shape)
        for axis in range(1, grid.ndim):
            np.cumsum(grid, axis=axis, out=grid)
        return s

    def products(self, counts, factor_rows) -> np.ndarray:
        """The spectra of direct products, one row each: factor_rows[i] lists
        the rows of counts (from counts()) of product i's factors, whose
        orders multiply to a divisor of N.  No count passes N, so int64
        holds them all."""
        import numpy as np
        width = max(map(len, factor_rows))
        index = np.array([list(r) + [-1] * (width - len(r)) for r in factor_rows]).T
        out = counts[index[0]]
        for column in index[1:]:
            out *= counts[column]
        grid = out.reshape(len(out), *self.shape)
        for axis in range(1, grid.ndim):
            chain = np.moveaxis(grid, axis, 0)
            chain[1:] -= chain[:-1]
        return out


def type_cardinalities(spectra: np.ndarray) -> np.ndarray:
    """|alpha| of each row of spectra: its distinct nonzero counts.

    Rows are put in order by an argsort of uint64, the kernel
    MatrixGroup._walk runs already: a first np.sort of int64 would page in
    about 0.12 MB more of numpy's sorting code, seen in peak RSS."""
    import numpy as np
    u = spectra.astype(np.uint64)
    s = np.take_along_axis(u, np.argsort(u, axis=1), axis=1)
    fresh = np.ones(s.shape, dtype=bool)
    fresh[:, 1:] = s[:, 1:] != s[:, :-1]
    return (fresh & (s > 0)).sum(axis=1)
