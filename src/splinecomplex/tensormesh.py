"""Tensor-product meshes with zero-measure entities and their incidence matrices.

The mesh induced by open knot vectors keeps empty knot spans, and renders each
boundary breakpoint with multiplicity floor(p/2)+1.  Entity orderings are
lexicographic with direction 1 fastest, matching the anchor numbering of the
discrete spaces, so incidence matrices computed here can be compared entry by
entry with the spline derivative matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

__all__ = ["TensorMesh", "build_tensor_mesh"]


def _mixed_index(idx, sizes):
    """Flatten a per-direction index tuple, direction 1 fastest."""
    out = 0
    for i, n in zip(reversed(idx), reversed(sizes)):
        out = out * n + i
    return out


@dataclass(frozen=True)
class TensorMesh:
    """Rendered tensor mesh: per-direction line tables with repetitions."""

    kvs: tuple
    lines: tuple  # per direction: tuple of Fraction values (with repetitions)

    @property
    def dim(self) -> int:
        return len(self.lines)

    @property
    def nlines(self) -> tuple:
        return tuple(len(ls) for ls in self.lines)

    @property
    def nspans(self) -> tuple:
        return tuple(len(ls) - 1 for ls in self.lines)

    def span_lengths(self, direction: int):
        ls = self.lines[direction]
        return [b - a for a, b in zip(ls, ls[1:])]

    # -- entity counts -----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return int(np.prod(self.nlines))

    def num_edges(self, direction: int) -> int:
        sizes = [self.nlines[d] for d in range(self.dim)]
        sizes[direction] = self.nspans[direction]
        return int(np.prod(sizes))

    def num_faces(self, normal: int) -> int:
        sizes = [self.nspans[d] for d in range(self.dim)]
        sizes[normal] = self.nlines[normal]
        return int(np.prod(sizes))

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.nspans))

    def euler_2d(self) -> bool:
        """F + V = E + 1 for two-dimensional meshes (zero-measure included)."""
        if self.dim != 2:
            raise ValueError("Euler identity implemented for 2D meshes")
        F = self.num_cells
        V = self.num_vertices
        E = self.num_edges(0) + self.num_edges(1)
        return F + V == E + 1

    # -- incidence matrices ---------------------------------------------------

    def edge_vertex_incidence(self, direction: int):
        """Signed edge-vertex incidence for edges along one direction.

        Edges are oriented toward increasing coordinate: +1 at the head
        vertex, -1 at the tail.
        """
        nl = self.nlines
        sizes_e = [nl[d] for d in range(self.dim)]
        sizes_e[direction] = self.nspans[direction]
        rows, cols, vals = [], [], []
        for e_idx in _product_indices(tuple(sizes_e)):
            e_flat = _mixed_index(e_idx, sizes_e)
            tail = list(e_idx)
            head = list(e_idx)
            head[direction] += 1
            rows.extend([e_flat, e_flat])
            cols.extend([_mixed_index(tuple(head), nl), _mixed_index(tuple(tail), nl)])
            vals.extend([1, -1])
        shape = (int(np.prod(sizes_e)), self.num_vertices)
        return sp.coo_matrix((vals, (rows, cols)), shape=shape, dtype=np.int64).tocsr()

    def face_cell_incidence(self, normal: int):
        """Signed face-cell incidence: for each cell, +1 on its lower face
        and -1 on its upper face in the normal direction.

        The outermost faces are dropped, matching the chain-complex
        correspondence of even-degree spaces.
        """
        ns = self.nspans
        nl = self.nlines
        sizes_f = [ns[d] for d in range(self.dim)]
        nlines_kept = nl[normal] - 2
        sizes_f[normal] = nlines_kept
        rows, cols, vals = [], [], []
        for c_idx in _product_indices(ns):
            c_flat = _mixed_index(c_idx, ns)
            for side, sign in ((0, 1), (1, -1)):
                f = list(c_idx)
                f[normal] = c_idx[normal] + side - 1
                if not (0 <= f[normal] < nlines_kept):
                    continue
                rows.append(_mixed_index(tuple(f), sizes_f))
                cols.append(c_flat)
                vals.append(sign)
        shape = (int(np.prod(sizes_f)), self.num_cells)
        return sp.coo_matrix((vals, (rows, cols)), shape=shape, dtype=np.int64).tocsr()


def _product_indices(sizes):
    """All index tuples over the given sizes, direction 1 fastest."""
    if any(n == 0 for n in sizes):
        return []
    out = []
    idx = [0] * len(sizes)
    total = int(np.prod(sizes))
    for _ in range(total):
        out.append(tuple(idx))
        for d in range(len(sizes)):
            idx[d] += 1
            if idx[d] < sizes[d]:
                break
            idx[d] = 0
    return out


def build_tensor_mesh(kvs) -> TensorMesh:
    """Mesh induced by per-direction knot vectors, with the boundary-line
    rendering convention and all zero-measure entities retained."""
    kvs = tuple(kvs)
    lines = tuple(tuple(kv.rendered_lines()) for kv in kvs)
    return TensorMesh(kvs, lines)
