"""mpmath references shared by the tests, independent of the program's own
lift to quadratures: they start from the full 2n x 2n dynamical matrix of
`model._full_matrix` (`build_system(cfg).full`)."""

import mpmath


def quadrature_drift(H):
    """The real quadrature drift A = T (-i H) T^+ of a full dynamical matrix
    H on the interleaved (c, c^+) basis, with T = I_n (x) [[1, 1], [-i, i]]
    / sqrt(2), as an mpmath matrix at the working precision of the caller
    (call it inside its mpmath.workdps). A is linear in H, so the drift of a
    difference of full matrices is its derivative."""
    m = len(H)
    r = 1 / mpmath.sqrt(2)
    T = mpmath.zeros(m, m)
    for k in range(0, m, 2):
        T[k, k], T[k, k + 1] = r, r
        T[k + 1, k], T[k + 1, k + 1] = -1j * r, 1j * r
    return (T * (-1j * mpmath.matrix(H.tolist())) * T.H).apply(mpmath.re)
