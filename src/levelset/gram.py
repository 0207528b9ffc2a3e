"""Basis tables once per group of elements, and element Gram matrices from them.

An element's parametric basis block at the quadrature points (values and
parametric gradients) depends on it only through its knot spans, so on
structured patches few blocks are distinct. :class:`BasisGroups` keeps each
distinct block once, with the group of every element: on a tensor patch a
block is the outer product of per-direction 1D blocks, so elements are
grouped by the classes of their 1D blocks (the sum-factorization view of
tensor-product IGA: Antolin, Buffa, Calabro, Martinelli & Sangalli, Comput.
Methods Appl. Mech. Eng. 285, 2015). The 1D blocks are the rows that
:meth:`levelset.mesh.GridBlock.tabulate` gives on the quadrature lattice,
each direction's elements times its Gauss points, on element-local
coordinates: elements that are alike in exact arithmetic get bitwise-equal
rows, so a uniform trilinear patch is one group and a C1 quadratic one (graded
or not) nine in 2D. :meth:`BasisGroups.contract` is then one GEMM.

The projection's mass plus smoothing and the capturing diffusion are both
sums over quadrature points of a per-point weight times a product of basis
values or parametric gradients; :class:`ParametricGram` tabulates those
products once per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import tensor_products


@dataclass(frozen=True)
class BasisGroups:
    """The elements of a patch grouped by their basis block at the
    quadrature points, with one table per group.

    Element e's block is ``values[index[e]]`` (nq, nen) with the parametric
    gradients ``grads[index[e]]`` (nq, nen, dim). Group g's elements are
    ``members(g)``, in increasing order. On a tensor B-spline patch the
    groups are the combinations of per-direction classes of elements with
    bitwise-equal 1D blocks (:meth:`tensor`), so only the geometry tells
    the elements of a group apart: one group on a uniform trilinear patch,
    9 on a C1 quadratic square, graded or not (its first, interior and last
    elements per direction). A triangulated patch has two groups, its
    lower-right and upper-left triangles; non-uniform NURBS weights give one
    group per element.
    """

    index: np.ndarray
    values: np.ndarray
    grads: np.ndarray

    @property
    def n_groups(self):
        return len(self.values)

    @cached_property
    def order(self):
        """The elements sorted by group, each group in increasing order."""
        return np.argsort(self.index, kind="stable")

    @cached_property
    def starts(self):
        """Group g is ``order[starts[g]:starts[g + 1]]``."""
        return np.concatenate([[0], np.cumsum(np.bincount(self.index,
                                                          minlength=self.n_groups))])

    def members(self, g):
        """The elements of group g, in increasing order."""
        return self.order[self.starts[g]:self.starts[g + 1]]

    def contract(self, rows, tables, out=None, scratch=None):
        """``rows[e] @ tables[index[e]]`` for every element e: rows (nel, k)
        and one (k, m) table per group give (nel, m), written into ``out``
        when given.

        With one group this is one GEMM, ``rows @ tables[0]``, straight into
        ``out``, with no gather or scatter; ``scratch`` is not used. Else one
        GEMM per group over the group's rows gathered contiguously; the
        products are formed in group order and scattered into element order.
        With a ``scratch`` of shape (rows, m), at least the largest group's
        rows, they are formed there, as many whole groups at a time as
        fit."""
        if self.n_groups == 1:
            return np.matmul(rows, tables[0], out=out)
        grouped = rows[self.order]
        if out is None:
            out = np.empty((len(rows), tables.shape[-1]))
        products = np.empty_like(out) if scratch is None else scratch
        held = 0  # the first group-ordered row that products holds
        for g, table in enumerate(tables):
            start, stop = self.starts[g], self.starts[g + 1]
            if stop - held > len(products):
                out[self.order[held:start]] = products[:start - held]
                held = start
            np.matmul(grouped[start:stop], table, out=products[start - held:stop - held])
        out[self.order[held:]] = products[:len(rows) - held]
        return out

    @classmethod
    def tensor(cls, lines, n_points):
        """Groups of a tensor B-spline basis (no weights) at a tensor rule of
        ``n_points[d]`` points per element along direction d, from the
        basis' 1D rows on the rule's lattice: ``lines[d]`` is direction d's
        ``(spans, ders)``, the values and first derivatives (2, E_d, p_d+1)
        at each of its elements' points in turn
        (:meth:`levelset.mesh.GridBlock.tabulate`).

        Each direction's elements are classed by bitwise-equal 1D blocks. An
        element's group is the mixed-radix combination of its classes,
        direction 0 fastest, and each group's tables are the products of its
        classes' blocks. On the lattice's local coordinates these are bitwise
        the blocks of evaluating the basis at each element's own quadrature
        points with the knots taken relative to its left knot; against
        evaluation at the global points k + x_g they agree to roundoff.
        """
        classes, blocks = [], []
        for (_, ders), n in zip(lines, n_points):
            ders = ders.reshape(2, -1, n, ders.shape[-1])
            bits = np.ascontiguousarray(ders.transpose(1, 0, 2, 3)).reshape(ders.shape[1], -1)
            _, first, inverse = np.unique(bits.view(np.uint64), axis=0, return_index=True,
                                          return_inverse=True)
            classes.append(inverse.ravel())
            blocks.append(ders[:, first])
        index = classes[-1]
        for cls_d, block in zip(classes[-2::-1], blocks[-2::-1]):
            index = (index[:, None] * block.shape[1] + cls_d[None, :]).ravel()
        n_groups = int(np.prod([block.shape[1] for block in blocks]))
        nq = int(np.prod(n_points))
        # direction d's class of each group and 1D point of each quadrature point
        group, point = np.arange(n_groups), np.arange(nq)
        per_dir = []
        for block, n_pts in zip(blocks, n_points):
            n_cls = block.shape[1]
            rows = block[:, group % n_cls][:, :, point % n_pts]
            per_dir.append(rows.reshape(2, n_groups * nq, -1))
            group, point = group // n_cls, point // n_pts
        vals, grads = tensor_products(per_dir)
        return cls(index, vals.reshape(n_groups, nq, -1),
                   grads.reshape(n_groups, nq, vals.shape[1], len(n_points)))


class ParametricGram:
    """Element matrices sum_q w[e, q] B_e[q] of a per-point weight w, with

        B_e[q, a, b] = mass * N_a N_b + stiffness * sum_d dN_ad dN_bd

    in the parametric basis at the quadrature points: the projection's mass
    plus smoothing and the capturing diffusion. B_e depends on the element
    only through its basis block, so B is tabulated once per group of
    :class:`BasisGroups` as an (nq, nen^2) table and each build is one GEMM
    w[group] @ B per group, w @ B on a one-group patch. Where every block is
    distinct (non-uniform NURBS weights) that is one table and one small
    GEMM per element.
    """

    def __init__(self, tab, mass=1.0, stiffness=0.0):
        self.groups = groups = tab.basis_groups
        n, dn = groups.values, groups.grads
        ng, nq, nen = n.shape
        b = np.zeros((ng, nq, nen, nen))
        if mass:
            b += mass * (n[..., :, None] * n[..., None, :])
        if stiffness:
            b += stiffness * (dn @ dn.swapaxes(2, 3))
        self.nen = nen
        self.tables = b.reshape(ng, nq, nen * nen)

    def __call__(self, w, out=None, scratch=None):
        """The element matrices (nel, nen, nen) of the weight ``w`` (nel, nq);
        ``out`` and ``scratch`` are as in :meth:`BasisGroups.contract`."""
        return self.groups.contract(w, self.tables, out, scratch).reshape(
            len(w), self.nen, self.nen)
