"""Kernel symmetry classification and the implied amplitude relations.

Eight symmetry classes of a nonlocal kernel V(x, y), each a combination of
transposition (x <-> y), argument flip (x -> -x) and complex conjugation.
Every class but Trivial and ParityPseudohermiticity forces relations among
the four scattering amplitudes (FORCED): Hermiticity and Parity force D = 0,
the other four tie D to the difference of one pair of probabilities.

The residuals max |K - gK| come from one pass over slabs of SLAB rows of
the support hull [a, b)^2, a = min(lo, n - hi) and b = max(hi, n - lo) for
the support [lo, hi); as a + b = n, each transform g maps it onto itself.
g is an involution, an index permutation plus an exact conjugation, and
float subtraction is exactly antisymmetric, so |K - gK| is equal at p and
g(p): the pass reduces each class over one representative of every orbit
only.  Off the hull, K and gK are at most SUPPORT_REL kmax in modulus, so
the residual there is below cut = 4 SUPPORT_REL kmax (or the smallest
normal float); a class whose hull residual does not exceed cut is scanned
again over all of K.  Residuals are thus bit-identical to the whole-kernel
max |K - gK|, and no temporary is larger than SLAB x n.

classify needs only the verdicts r <= tol, so its pass has a stop bound: a
class leaves it at the first slab whose maximum exceeds tol, and the
rescan runs only when tol < cut, where the entries off the hull can still
decide a verdict.  The report keeps a reference to its kernel and computes
the exact residuals on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Dict, Optional

import numpy as np

from .demon import demon_parameter
from .nonlocal_solver import SLAB, NonlocalKernel, check_wavenumber, solve_nonlocal
from .units import SUPPORT_REL

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


def _representatives(K: np.ndarray, flip: bool, transpose: bool, a: int, b: int):
    """Orbit representatives in rows a:b of K, and their images.

    Returns (P, Q): P is the part of rows a:b that holds one representative
    of every orbit of the index map (flip, transpose) that meets those rows,
    and Q is K at the images of those indices, as a view.
    Returns None when no row of the slab holds a representative.
    """
    n = len(K)
    rows = K[a:b]
    if flip and transpose:  # (i, j) -> (n-1-j, n-1-i): take i + j <= n - 1
        P, Q = rows[:, : n - a], K[a:, n - b : n - a][::-1, ::-1].T
    elif transpose:  # (i, j) -> (j, i): take i <= j
        P, Q = rows[:, a:], K[a:, a:b].T
    elif flip:  # (i, j) -> (n-1-i, n-1-j): take i <= (n - 1) / 2
        if 2 * a > n - 1:
            return None
        P, Q = rows, K[n - b : n - a][::-1, ::-1]
    else:  # the identity: every index is its own orbit
        P, Q = rows, rows
    return P, Q


def _blocked_maxima(K: np.ndarray, classes, stop: float):
    """max |K - gK| per class, g the class transform.

    One pass over slabs of SLAB rows; classes that share an index map share
    its slab pair and one contiguous copy of its image, and every image,
    difference and modulus goes to preallocated slab buffers.  A class
    leaves the pass after the first slab that lifts its running maximum
    above stop, so its value is then above stop but not its maximum.  The
    kernel must be finite: a NaN would lose every comparison of the running
    maximum.
    """
    by_map = {}
    for cls in classes:
        by_map.setdefault(cls.value[:2], []).append(cls)
    found = dict.fromkeys(classes, 0.0)
    image, diff = (np.empty(SLAB * len(K), dtype=complex) for _ in range(2))
    mod = np.empty(SLAB * len(K))
    for a in range(0, len(K), SLAB):
        b = min(a + SLAB, len(K))
        for (flip, transpose), group in by_map.items():
            pair = _representatives(K, flip, transpose, a, b)
            if pair is None:
                continue
            P, Q = pair
            q, d, r = (buf[: P.size].reshape(P.shape) for buf in (image, diff, mod))
            if len(group) > 1:  # both classes then read one contiguous copy
                np.copyto(q, Q)
                Q = q
            for cls in group:
                np.subtract(P, np.conjugate(Q, out=d) if cls.value[2] else Q, out=d)
                found[cls] = max(found[cls], float(np.max(np.abs(d, out=r))))
            group[:] = [cls for cls in group if found[cls] <= stop]
        by_map = {key: group for key, group in by_map.items() if group}
        if not by_map:
            break
    return found


#: The amplitude relations each class forces.  The D forms follow from
#: substituting the moduli equality into the defining formula
#: D = (|T|^2-|R|^2+|Rt|^2-|Tt|^2)/2.  ParityPseudohermiticity forces nothing:
#: flip+transpose+conjugate maps left incidence onto itself, so it constrains
#: phases, not the four moduli.
FORCED = {
    SymmetryClass.Trivial: (),
    SymmetryClass.Hermiticity: ("|T|=|Tt|", "|R|=|Rt|", "D=0"),
    SymmetryClass.Parity: ("|T|=|Tt|", "|R|=|Rt|", "D=0"),
    SymmetryClass.ParityPseudohermiticity: (),
    SymmetryClass.TimeReversal: ("|R|=|Rt|", "D=(|T|^2-|Tt|^2)/2"),
    SymmetryClass.TimeReversalPseudohermiticity: ("|T|=|Tt|", "D=(|Rt|^2-|R|^2)/2"),
    SymmetryClass.PT: ("|T|=|Tt|", "D=(|Rt|^2-|R|^2)/2"),
    SymmetryClass.PTPseudohermiticity: ("|R|=|Rt|", "D=(|T|^2-|Tt|^2)/2"),
}

#: How far an amplitude set a is from each relation.
VIOLATION = {
    "|T|=|Tt|": lambda a: abs(abs(a.T) - abs(a.Tt)),
    "|R|=|Rt|": lambda a: abs(abs(a.R) - abs(a.Rt)),
    "D=0": lambda a: abs(demon_parameter(a)),
    "D=(|Rt|^2-|R|^2)/2":
        lambda a: abs(demon_parameter(a) - 0.5 * (abs(a.Rt) ** 2 - abs(a.R) ** 2)),
    "D=(|T|^2-|Tt|^2)/2":
        lambda a: abs(demon_parameter(a) - 0.5 * (abs(a.T) ** 2 - abs(a.Tt) ** 2)),
}


def predicted_relations(classes) -> set:
    """Amplitude relations forced by the given set of satisfied classes (FORCED)."""
    return set().union(*(FORCED[cls] for cls in classes))


def _maxima(kernel: NonlocalKernel, stop: float = np.inf) -> Dict[str, float]:
    """max |K - gK| per class, by name, for stop = inf; for a finite stop, a
    value that is at most stop exactly when that maximum is.  Trivial is 0,
    and the parity classes on an asymmetric grid are NaN."""
    classes = [cls for cls in SymmetryClass if cls is not SymmetryClass.Trivial
               and (kernel.grid.symmetric or not cls.involves_parity)]
    (lo, hi), n = kernel.support, kernel.grid.n
    a, b = min(lo, n - hi), max(hi, n - lo)
    found = _blocked_maxima(kernel.K[a:b, a:b], classes, stop)
    cut = max(4 * SUPPORT_REL * kernel.kmax, np.finfo(float).tiny)
    # off the hull |K - gK| <= cut: an exact maximum at most cut, or a
    # verdict at a stop below cut, needs the entries there
    if stop == np.inf or stop < cut:
        rescan = [cls for cls in classes if found[cls] <= min(cut, stop)]
        if rescan:
            found.update(_blocked_maxima(kernel.K, rescan, stop))
    found[SymmetryClass.Trivial] = 0.0
    return {cls.name: found.get(cls, float("nan")) for cls in SymmetryClass}


@dataclass(frozen=True)
class SymmetryReport:
    """Verdict of every class at tol, and the kernel they were found on; the
    rest follows."""

    verdicts: Dict[str, bool]
    tol: float
    kernel: NonlocalKernel = field(repr=False, compare=False)

    @cached_property
    def residuals(self) -> Dict[str, float]:
        """max |K - gK| per class, exact, computed on first read; NaN for a
        parity class on an asymmetric grid."""
        return _maxima(self.kernel)

    @property
    def satisfied(self):
        return {SymmetryClass[n] for n, ok in self.verdicts.items() if ok}

    @property
    def trivial_only(self) -> bool:
        return self.satisfied == {SymmetryClass.Trivial}

    @property
    def predictions(self) -> set:
        return predicted_relations(self.satisfied)


def check_tolerance(rel_tol: float):
    """Raise ValueError unless rel_tol is finite and >= 0."""
    if not 0.0 <= rel_tol < np.inf:
        raise ValueError(f"rel_tol must be finite and >= 0, got {rel_tol}")


def classify(kernel: NonlocalKernel, rel_tol: float = REL_TOL) -> SymmetryReport:
    """Classify the kernel against all eight classes.

    A class holds when its residual is at most rel_tol times the kernel
    max-norm; parity classes on an asymmetric grid never hold.
    """
    check_tolerance(rel_tol)
    tol = float(rel_tol * kernel.kmax if kernel.kmax > 0 else rel_tol)
    verdicts = {name: bool(r <= tol) for name, r in _maxima(kernel, tol).items()}
    return SymmetryReport(verdicts, tol, kernel)


@dataclass
class VerificationReport:
    """Solver-side check of every predicted relation."""

    report: SymmetryReport
    amplitudes: object
    violations: Dict[str, float]
    tol = RELATION_TOL

    @property
    def all_hold(self) -> bool:
        return all(v <= self.tol for v in self.violations.values())


def verify_predictions(
    kernel: NonlocalKernel,
    k: float,
    report: Optional[SymmetryReport] = None,
) -> VerificationReport:
    """Solve the kernel and check every relation its symmetries predict, to
    RELATION_TOL; report is classify(kernel) unless the caller has one."""
    check_wavenumber(k)
    if report is None:
        report = classify(kernel)
    amps = solve_nonlocal(kernel, k)
    violations = {rel: VIOLATION[rel](amps) for rel in sorted(report.predictions)}
    return VerificationReport(report=report, amplitudes=amps, violations=violations)
