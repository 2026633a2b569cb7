"""Kernel symmetry classification and the implied amplitude relations.

Eight symmetry classes of a nonlocal kernel V(x, y), each a combination of
transposition (x <-> y), argument flip (x -> -x) and complex conjugation.
Any class other than the trivial one forces relations among the four
scattering amplitudes; in particular Hermiticity or parity forces D = 0, so
a device with D != 0 can satisfy no symmetry but the trivial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

import numpy as np

from .demon import demon_parameter
from .errors import AsymmetricGridError
from .nonlocal_solver import NonlocalKernel, solve_nonlocal

#: Default verdict tolerance, relative to the kernel max-norm.
REL_TOL = 1e-8

#: Tolerance for amplitude relations checked against solver output.
RELATION_TOL = 1e-4


class SymmetryClass(Enum):
    """The eight kernel symmetry classes.

    Value encodes the transform as (flip, transpose, conjugate) flags; the
    trivial class is the identity and is satisfied by every kernel.
    """

    Trivial = (False, False, False)
    Hermiticity = (False, True, True)
    Parity = (True, False, False)
    ParityPseudohermiticity = (True, True, True)
    TimeReversal = (False, False, True)
    TimeReversalPseudohermiticity = (False, True, False)
    PT = (True, False, True)
    PTPseudohermiticity = (True, True, False)

    @property
    def involves_parity(self) -> bool:
        return self.value[0]


def transform(K: np.ndarray, cls: SymmetryClass) -> np.ndarray:
    """Image of the kernel matrix under the class transform (an involution)."""
    flip, transpose, conjugate = cls.value
    M = K
    if flip:
        M = M[::-1, ::-1]
    if transpose:
        M = M.T
    if conjugate:
        M = np.conj(M)
    return M


def residual(kernel: NonlocalKernel, cls: SymmetryClass) -> float:
    """Max-norm of K minus its transformed image; 0 means the symmetry holds."""
    if cls.involves_parity and not kernel.grid.symmetric:
        raise AsymmetricGridError(
            f"{cls.name} requires a grid symmetric about x = 0, "
            f"got [{kernel.grid.x_min}, {kernel.grid.x_max}]"
        )
    if cls is SymmetryClass.Trivial:
        return 0.0
    return float(np.max(np.abs(kernel.K - transform(kernel.K, cls))))


def predicted_relations(classes) -> set:
    """Amplitude relations forced by the given set of satisfied classes.

    Relations are the strings "|T|=|Tt|", "|R|=|Rt|", "D=0",
    "D=(|Rt|^2-|R|^2)/2" and "D=(|T|^2-|Tt|^2)/2"; the trivial class alone
    forces nothing.  The D forms follow from substituting the moduli
    equality into the defining formula D = (|T|^2-|R|^2+|Rt|^2-|Tt|^2)/2.
    ParityPseudohermiticity forces nothing either: flip+transpose+conjugate
    maps left incidence onto itself, so it constrains phases, not the four
    moduli.
    """
    classes = set(classes)
    rel = set()
    if classes & {SymmetryClass.Hermiticity, SymmetryClass.Parity}:
        rel |= {"|T|=|Tt|", "|R|=|Rt|", "D=0"}
    if classes & {
        SymmetryClass.TimeReversalPseudohermiticity,
        SymmetryClass.PT,
    }:
        rel |= {"|T|=|Tt|", "D=(|Rt|^2-|R|^2)/2"}
    if classes & {
        SymmetryClass.TimeReversal,
        SymmetryClass.PTPseudohermiticity,
    }:
        rel |= {"|R|=|Rt|", "D=(|T|^2-|Tt|^2)/2"}
    return rel


@dataclass
class SymmetryReport:
    """Residual and verdict for every class, plus the forced relations."""

    residuals: Dict[str, float]
    verdicts: Dict[str, bool]
    tol: float
    predictions: set = field(default_factory=set)

    @property
    def satisfied(self):
        return {SymmetryClass[n] for n, ok in self.verdicts.items() if ok}

    @property
    def trivial_only(self) -> bool:
        return self.satisfied == {SymmetryClass.Trivial}


def classify(kernel: NonlocalKernel, rel_tol: float = REL_TOL) -> SymmetryReport:
    """Classify the kernel against all eight classes.

    The verdict tolerance is rel_tol times the kernel max-norm.  Parity
    classes on an asymmetric grid get residual NaN and verdict False.
    """
    if not 0.0 <= rel_tol < np.inf:
        raise ValueError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    kmax = float(np.max(np.abs(kernel.K)))
    tol = rel_tol * kmax if kmax > 0 else rel_tol
    residuals, verdicts = {}, {}
    for cls in SymmetryClass:
        try:
            r = residual(kernel, cls)
        except AsymmetricGridError:
            residuals[cls.name] = float("nan")
            verdicts[cls.name] = False
            continue
        residuals[cls.name] = r
        verdicts[cls.name] = r <= tol
    report = SymmetryReport(residuals=residuals, verdicts=verdicts, tol=tol)
    report.predictions = predicted_relations(report.satisfied)
    return report


def _relation_violation(relation: str, a) -> float:
    t2, r2, tt2, rt2 = a.probabilities
    D = demon_parameter(a)
    if relation == "|T|=|Tt|":
        return abs(abs(a.T) - abs(a.Tt))
    if relation == "|R|=|Rt|":
        return abs(abs(a.R) - abs(a.Rt))
    if relation == "D=0":
        return abs(D)
    if relation == "D=(|Rt|^2-|R|^2)/2":
        return abs(D - 0.5 * (rt2 - r2))
    if relation == "D=(|T|^2-|Tt|^2)/2":
        return abs(D - 0.5 * (t2 - tt2))
    raise ValueError(f"unknown relation {relation!r}")


@dataclass
class VerificationReport:
    """Solver-side check of every predicted relation."""

    report: SymmetryReport
    amplitudes: object
    violations: Dict[str, float]
    tol: float

    @property
    def all_hold(self) -> bool:
        return all(v <= self.tol for v in self.violations.values())


def verify_predictions(
    kernel: NonlocalKernel,
    k: float,
    rel_tol: float = REL_TOL,
    relation_tol: float = RELATION_TOL,
    report: Optional[SymmetryReport] = None,
) -> VerificationReport:
    """Solve the kernel and check every relation its symmetries predict."""
    if report is None:
        report = classify(kernel, rel_tol)
    amps = solve_nonlocal(kernel, k)
    violations = {
        rel: _relation_violation(rel, amps) for rel in sorted(report.predictions)
    }
    return VerificationReport(
        report=report, amplitudes=amps, violations=violations, tol=relation_tol
    )
