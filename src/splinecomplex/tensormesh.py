"""Tensor-product meshes with zero-measure entities and their incidence matrices.

The mesh induced by open knot vectors keeps empty knot spans, and renders each
boundary breakpoint with multiplicity floor(p/2)+1.  A k-dimensional entity
spans k directions and sits on a line of each other direction; the interior
ones avoid the two outermost lines.  One rule places the compatible spline
spaces on them: X_j sits on the j-dimensional entities for odd degree and on
the interior (d - j)-dimensional ones for even degree.  Entities of one kind
are numbered with direction 1 fastest (NumPy's Fortran order), matching the
anchor numbering of the discrete spaces, so incidence matrices computed here
can be compared entry by entry with the spline derivative matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["TensorMesh", "build_tensor_mesh"]


def _step_incidence(row_shape, col_shape, direction: int):
    """Signed incidence of the entities of the grid ``row_shape`` with those
    of ``col_shape``: entity i meets i (-1) and i plus one step in
    ``direction`` (+1), both grids numbered with direction 1 fastest."""
    tail = np.indices(row_shape).reshape(len(row_shape), -1, order="F")
    head = tail.copy()
    head[direction] += 1
    n = tail.shape[1]
    cols = np.concatenate([np.ravel_multi_index(x, col_shape, order="F") for x in (head, tail)])
    vals = np.repeat(np.array([1, -1], dtype=np.int64), n)
    shape = (n, int(np.prod(col_shape)))
    return sp.coo_matrix((vals, (np.tile(np.arange(n), 2), cols)), shape=shape).tocsr()


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

    def num_entities(self, k: int, interior: bool = False) -> int:
        """Number of k-dimensional entities, zero-measure ones included:
        over each choice of k directions, their spans times the other
        directions' lines, the two outermost lines dropped if ``interior``."""
        lines = [n - 2 * interior for n in self.nlines]
        return sum(
            int(np.prod([self.nspans[i] if i in axes else lines[i] for i in range(self.dim)]))
            for axes in itertools.combinations(range(self.dim), k)
        )

    def euler_2d(self) -> bool:
        """F + V = E + 1 for two-dimensional meshes (zero-measure included)."""
        if self.dim != 2:
            raise ValueError("Euler identity implemented for 2D meshes")
        return self.num_entities(2) + self.num_entities(0) == self.num_entities(1) + 1

    # -- incidence matrices ---------------------------------------------------

    def edge_vertex_incidence(self, direction: int):
        """Signed edge-vertex incidence for edges along one direction.

        Edges are oriented toward increasing coordinate: +1 at the head
        vertex, -1 at the tail.
        """
        edges = list(self.nlines)
        edges[direction] = self.nspans[direction]
        return _step_incidence(edges, self.nlines, direction)

    def face_cell_incidence(self, normal: int):
        """Signed face-cell incidence: for each cell, +1 on its lower face
        and -1 on its upper face in the normal direction.

        The outermost faces are dropped, matching the chain-complex
        correspondence of even-degree spaces: face i lies between cells i
        and i + 1.
        """
        faces = list(self.nspans)
        faces[normal] = self.nlines[normal] - 2
        return _step_incidence(faces, self.nspans, normal)


def build_tensor_mesh(kvs) -> TensorMesh:
    """Mesh induced by per-direction knot vectors, with the boundary-line
    rendering convention and all zero-measure entities retained."""
    kvs = tuple(kvs)
    lines = tuple(tuple(kv.rendered_lines()) for kv in kvs)
    return TensorMesh(kvs, lines)
