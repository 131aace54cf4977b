"""The five result types that stay frozen dataclasses.

``perfbench/tests`` hands these to ``dataclasses.replace``, so they
keep the dataclass machinery; every other result type is a
``core.Record``.  This is the only module that imports ``dataclasses``,
and the functions that build one of these types import it when they
are called (``assign.hungarian_scaling``, ``matrix.quasi_identity_check``,
``matrix.quasi_inverse``, ``matrix.essential_trace`` and
``transfer.run_suite``).  So a command-line process that builds none of
them loads neither ``dataclasses`` nor the ``inspect`` it imports, and
pays for no dataclass decoration.

The module sits below ``matrix``, ``poly`` and ``transfer``, so the
annotations that name their types (``ELTMatrix``, ``MonomialStatus``,
``CheckReport``) are names only: ``from __future__ import annotations``
leaves every annotation unevaluated."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .core import Bottom, ELTScalar


@dataclass(frozen=True)
class HungarianResult:
    """Row offsets alpha_i = -u_i plus the certifying data: the
    optimal assignment sigma, the dual potentials (u, v) with
    u_i + v_j >= t_ij everywhere finite and equality on sigma, and the
    assignment value."""

    alphas: Tuple[Fraction, ...]
    sigma: Tuple[int, ...]
    row_duals: Tuple[Fraction, ...]
    col_duals: Tuple[Fraction, ...]
    value: Fraction


@dataclass(frozen=True)
class QuasiIdentityReport:
    """Checks that a matrix is a quasi-identity: ones on the diagonal,
    layer-zero entries off it, idempotent, and a determinant of nonzero
    layer, which is expanded only when a check fails."""

    diagonal_ok: bool
    offdiagonal_ok: bool
    idempotent: bool
    determinant: ELTScalar
    nonsingular: bool

    @property
    def ok(self) -> bool:
        return (
            self.diagonal_ok
            and self.offdiagonal_ok
            and self.idempotent
            and self.nonsingular
        )

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class QuasiInverseResult:
    inverse: ELTMatrix
    left: QuasiIdentityReport
    right: QuasiIdentityReport


@dataclass(frozen=True)
class EtrReport:
    """Essential trace with its supporting spectral data.

    ``coefficients`` maps k to the coefficient of L^(n-k) in the
    characteristic polynomial (finite ones only); ``l_set`` collects
    the k maximising t(c_k)/k and ``mu`` is its minimum.  The status
    grades the trace monomial: essential when the trace tangible beats
    every simple cycle of length at least two, quasi-essential on a
    tie, inessential when it is beaten or absent.  The value is the
    trace itself in the essential case and (t(c_mu)/mu)^[0] otherwise.
    AB and BA have the same trace and the same etr tangible; their etr
    values can differ only in the layer-zero collapse of a
    quasi-essential tie, where one side is essential and the other
    quasi-essential.
    """

    trace: ELTScalar
    coefficients: Dict[int, ELTScalar]
    l_set: frozenset
    mu: Optional[int]
    dominant: ELTScalar
    long_cycle_bound: Fraction | Bottom
    status: MonomialStatus
    value: ELTScalar


@dataclass(frozen=True)
class SuiteRecord:
    name: str
    ok: bool
    seed: int
    reports: Tuple[CheckReport, ...]

    @property
    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name} {self.seed}"
