"""Element Gram matrices of the parametric basis, one GEMM per distinct block.

The projection's mass plus smoothing and the capturing diffusion are both
sums over quadrature points of a per-point weight times a product of basis
values or parametric gradients. Those products depend on an element only
through its basis block at the quadrature points, and on structured patches
few blocks are distinct: :class:`BasisGroups` finds the elements whose
blocks are bitwise equal, and :class:`ParametricGram` tabulates the products
once per group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _block_keys(bits):
    """Exact integer hash of each row of a uint64 array: a dot product with
    fixed odd multipliers, wrapping modulo 2**64."""
    mult = np.random.default_rng(0x5EED).integers(0, 2**63, bits.shape[1], dtype=np.uint64)
    return bits @ (2 * mult + 1)


@dataclass(frozen=True)
class BasisGroups:
    """Elements whose parametric basis blocks at the quadrature points are
    bitwise identical.

    Group g is ``order[starts[g]:starts[g + 1]]``; its first element is its
    representative. Only the geometry distinguishes elements within a group,
    so on structured patches there are few groups: 8 on a 16^3 trilinear
    patch, 36 on a graded 120^2 quadratic one (grading moves the geometry
    only). Non-uniform NURBS weights make every block distinct.
    """

    order: np.ndarray
    starts: np.ndarray

    @property
    def n_groups(self):
        return len(self.starts) - 1

    @property
    def representatives(self):
        return self.order[self.starts[:-1]]

    @classmethod
    def of(cls, field_n, field_dn):
        """Groups of the per-element blocks (nel, ...) of values and gradients."""
        nel = field_n.shape[0]
        n_bits = np.ascontiguousarray(field_n).reshape(nel, -1).view(np.uint64)
        dn_bits = np.ascontiguousarray(field_dn).reshape(nel, -1).view(np.uint64)
        # candidate groups by a hash of the gradient blocks alone, then checked
        # in full against each group's first element, values included
        _, first, group = np.unique(_block_keys(dn_bits), return_index=True,
                                    return_inverse=True)
        rep = first[group]
        same = np.empty(nel, dtype=bool)
        block = 512  # rows per check: keeps the gathered copies small
        for lo in range(0, nel, block):
            rows, reps = slice(lo, lo + block), rep[lo:lo + block]
            same[rows] = (np.all(dn_bits[rows] == dn_bits[reps], axis=1)
                          & np.all(n_bits[rows] == n_bits[reps], axis=1))
        if not same.all():
            # hash collisions (or equal gradients with unequal values): group
            # the stragglers exactly by their raw bytes, as new groups
            bad = np.flatnonzero(~same)
            raw = np.ascontiguousarray(np.concatenate([dn_bits[bad], n_bits[bad]], axis=1))
            _, sub = np.unique(raw.view(np.dtype((np.void, raw.shape[1] * 8)))[:, 0],
                               return_inverse=True)
            group[bad] = len(first) + sub
        order = np.argsort(group, kind="stable")
        starts = np.concatenate([[0], np.cumsum(np.bincount(group))])
        return cls(order, starts)


class ParametricGram:
    """Element matrices sum_q w[e, q] B_e[q] of a per-point weight w, with

        B_e[q, a, b] = mass * N_a N_b + stiffness * sum_d dN_ad dN_bd

    in the parametric basis at the quadrature points: the projection's mass
    plus smoothing and the capturing diffusion. B_e depends on the element
    only through its basis block, so B is tabulated once per group of
    :class:`BasisGroups` as an (nq, nen^2) table and each build is one GEMM
    w[group] @ B per group. Where every block is distinct (non-uniform NURBS
    weights) that is one table and one small GEMM per element.
    """

    def __init__(self, tab, mass=1.0, stiffness=0.0):
        self.groups = tab.basis_groups
        reps = self.groups.representatives
        n, dn = tab.field_N[reps], tab.field_dN[reps]
        nq, nen = n.shape[1:]
        b = np.zeros((len(reps), nq, nen, nen))
        if mass:
            b += mass * (n[..., :, None] * n[..., None, :])
        if stiffness:
            b += stiffness * (dn @ dn.swapaxes(2, 3))
        self.nen = nen
        self.tables = b.reshape(len(reps), nq, nen * nen)

    def __call__(self, w):
        nel = len(w)
        out = np.empty((nel, self.nen**2))
        order, starts = self.groups.order, self.groups.starts
        for g, table in enumerate(self.tables):
            idx = order[starts[g]:starts[g + 1]]
            out[idx] = w[idx] @ table
        return out.reshape(nel, self.nen, self.nen)
