"""Exact clamping test of a univariate basis function, shared by the tests."""


def is_clamped(local, degree: int, side: int) -> bool:
    """True if the basis function with local knots ``local`` (nondecreasing
    in [0, 1]) has a nonzero value at the 0/1 end of its direction."""
    if side == 0:
        return local[degree] == 0
    return local[1] == 1
