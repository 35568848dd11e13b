"""Checks shared by several test modules."""

from phinabla import linalg


def same_space(basis1, basis2):
    """Whether two lists of rational vectors span the same subspace."""
    return (linalg.rank(list(basis1) + list(basis2)) == linalg.rank(basis1)
            == linalg.rank(basis2))
