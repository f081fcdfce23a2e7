"""Exception types shared across the toolkit."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed: a fit hit its iteration cap, a LAPACK
    eigensolve failed, or a quadrature rule failed its normalization check."""


class AmbiguousLabelError(RuntimeError):
    """Level labeling could not decide between two candidate eigenstates.

    Carries both transition matrix elements so the caller can inspect how
    close the call was instead of silently guessing.
    """

    def __init__(self, n: int, element_a: float, element_b: float):
        self.n = n
        self.element_a = element_a
        self.element_b = element_b
        super().__init__(
            f"cannot assign labels at photon index {n + 1}: candidate matrix "
            f"elements {element_a:.3e} and {element_b:.3e} do not separate"
        )


class HamiltonianOverflowError(ValueError):
    """A Hamiltonian entry would overflow a float at these parameters."""


class IllConditionedDataError(ValueError):
    """Input data cannot constrain the requested fit (e.g. no resonance dip)."""
