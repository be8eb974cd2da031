"""Catalog base spaces: finite label sets, flat circles and flat tori.

Coordinates on the continuous bases are arclength in [0, L).  Isometry data
is kept as exact rational turns (fractions of a full circumference), so
composing germs, comparing them and moving mode indices around are exact
operations; floating point only enters when coefficients are evaluated.

Band-limited data on the Fourier bases has one implementation, ``ModeData``,
for n = 1 or 2 axes; ``CircleModes`` and ``TorusModes`` only fix n and name
the base ``.circle`` or ``.torus``.  Both flavors share zero, mode, degree,
``with_cutoff``, +, -, ``mul``, ``derivative(axis)`` and ``pullback(iso)``,
and ``mode_class(base)`` picks the flavor of a base.  ``mode_map`` is the one
place that decides where an isometry sends each mode row and the phase it
picks up: ``pullback`` and the spinor action ``U(g)`` of ``spectral`` both
read it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

TAU = 2.0 * np.pi

HALF = Fraction(1, 2)


class BandLimitError(ValueError):
    """Operation would push mode content past the declared cutoff."""


class CatalogError(ValueError):
    """Input falls outside the supported catalog of bases and isometries."""


def unit_phase(turns) -> complex:
    """exp(2*pi*i*turns); exact for quarter turns."""
    fr = Fraction(turns) % 1
    if fr == 0:
        return complex(1.0)
    if fr == Fraction(1, 2):
        return complex(-1.0)
    if fr == Fraction(1, 4):
        return 1j
    if fr == Fraction(3, 4):
        return -1j
    return cmath.exp(2j * cmath.pi * float(fr))


def phase_vector(M, twist, turns) -> np.ndarray:
    """unit_phase((k + twist) * turns) for k = -M..M, bit for bit.

    The fractional parts are integer residues over one common denominator;
    each distinct residue takes its phase from ``unit_phase`` once, so full
    turns give exactly 1.0 and half turns exactly -1.0.
    """
    t, tw = _frac(turns), _frac(twist)
    if t.denominator == 1 and (t * tw).denominator == 1:  # every phase is a whole turn
        return np.ones(2 * M + 1, dtype=complex)
    den = t.denominator * tw.denominator
    ks = np.arange(-M, M + 1, dtype=np.int64)
    residues = np.mod((ks * tw.denominator + tw.numerator) * t.numerator, den)
    levels, where = np.unique(residues, return_inverse=True)
    return np.array([unit_phase(Fraction(int(r), den)) for r in levels], dtype=complex)[where]


# ---------------------------------------------------------------------------
# base spaces


@dataclass(frozen=True)
class FiniteSet:
    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if not pts or len(set(pts)) != len(pts):
            raise CatalogError("finite base needs at least one distinct label")

    @property
    def dim(self):
        return 0


@dataclass(frozen=True)
class FourierCircle:
    circumference: float = TAU
    mode_cutoff: int = 8

    def __post_init__(self):
        if self.circumference <= 0:
            raise CatalogError("circumference must be positive")
        if self.mode_cutoff < 2:
            raise CatalogError("mode cutoff must be at least 2")

    @property
    def dim(self):
        return 1

    @property
    def grid_size(self):
        # sample points per turn for the point checks of groupoids.grid_turns
        return 4 * self.mode_cutoff

    def grid(self, n=None):
        n = self.grid_size if n is None else n
        return np.arange(n) * (self.circumference / n)

    @property
    def lengths(self):
        return (self.circumference,)


@dataclass(frozen=True)
class FourierTorus:
    circumferences: tuple = (TAU, TAU)
    mode_cutoff: int = 8

    def __post_init__(self):
        cs = tuple(float(c) for c in self.circumferences)
        object.__setattr__(self, "circumferences", cs)
        if len(cs) != 2 or any(c <= 0 for c in cs):
            raise CatalogError("torus needs two positive circumferences")
        if self.mode_cutoff < 2:
            raise CatalogError("mode cutoff must be at least 2")

    @property
    def dim(self):
        return 2

    @property
    def grid_size(self):
        return 4 * self.mode_cutoff

    def grid(self, n=None):
        n = self.grid_size if n is None else n
        xs = np.arange(n) * (self.circumferences[0] / n)
        ys = np.arange(n) * (self.circumferences[1] / n)
        return xs, ys

    @property
    def lengths(self):
        return self.circumferences


# ---------------------------------------------------------------------------
# catalog isometries (exact descriptors)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class CircleRotation:
    """x -> x + turns * L, with turns an exact fraction of a full circle."""

    turns: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "turns", _frac(self.turns) % 1)

    def after(self, other: "CircleRotation") -> "CircleRotation":
        return CircleRotation(self.turns + other.turns)

    def inverse(self) -> "CircleRotation":
        return CircleRotation(-self.turns)

    def apply_turns(self, t: Fraction) -> Fraction:
        return (_frac(t) + self.turns) % 1

    def differential(self) -> np.ndarray:
        return np.array([[1.0]])


@dataclass(frozen=True)
class TorusIsometry:
    """v -> eps*v + shift*L, eps = -1 when negate else +1, shift in turns."""

    negate: bool = False
    shift: tuple = (Fraction(0), Fraction(0))

    def __post_init__(self):
        object.__setattr__(self, "shift", tuple(_frac(s) % 1 for s in self.shift))

    def after(self, other: "TorusIsometry") -> "TorusIsometry":
        # self(other(v)) = eps2*eps1*v + eps2*s1 + s2
        e2 = -1 if self.negate else 1
        shift = tuple((e2 * s1 + s2) % 1 for s1, s2 in zip(other.shift, self.shift))
        return TorusIsometry(self.negate != other.negate, shift)

    def inverse(self) -> "TorusIsometry":
        e = -1 if self.negate else 1
        # v = eps*w + s  =>  w = eps*(v - s)
        return TorusIsometry(self.negate, tuple((-e * s) % 1 for s in self.shift))

    def apply_turns(self, t: tuple) -> tuple:
        e = -1 if self.negate else 1
        return tuple((e * _frac(ti) + s) % 1 for ti, s in zip(t, self.shift))

    def differential(self) -> np.ndarray:
        e = -1.0 if self.negate else 1.0
        return np.array([[e, 0.0], [0.0, e]])


@dataclass(frozen=True)
class LabelPermutation:
    """Bijection of a finite label set, stored as sorted (x, image) pairs."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple(sorted(tuple(p) for p in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        src = [p[0] for p in pairs]
        dst = [p[1] for p in pairs]
        if sorted(src) != sorted(dst):
            raise CatalogError("permutation pairs do not describe a bijection")

    @classmethod
    def identity(cls, points):
        return cls(tuple((p, p) for p in points))

    def as_dict(self):
        return dict(self.pairs)

    def apply(self, x):
        return self.as_dict()[x]

    def after(self, other: "LabelPermutation") -> "LabelPermutation":
        od = other.as_dict()
        sd = self.as_dict()
        return LabelPermutation(tuple((x, sd[y]) for x, y in od.items()))

    def inverse(self) -> "LabelPermutation":
        return LabelPermutation(tuple((y, x) for x, y in self.pairs))


def identity_isometry(base):
    if isinstance(base, FiniteSet):
        return LabelPermutation.identity(base.points)
    if isinstance(base, FourierCircle):
        return CircleRotation(0)
    if isinstance(base, FourierTorus):
        return TorusIsometry()
    raise CatalogError(f"no identity isometry for base {base!r}")


# ---------------------------------------------------------------------------
# band-limited mode data


def _affine(iso, n):
    """``(e, shift)`` of a catalog isometry v -> e*v + shift*L, shift in turns per axis."""
    if isinstance(iso, CircleRotation):
        e, shift = 1, (iso.turns,)
    else:
        e, shift = (-1 if iso.negate else 1), iso.shift
    if len(shift) != n:
        raise CatalogError(f"{type(iso).__name__} does not act on a {n}-dimensional base")
    return e, shift


def mode_map(M, twist, iso):
    """Where the pullback ``f -> f o iso`` sends each mode row, and the phase it picks up.

    The rows are the modes {-M..M}^n in row-major order, and ``twist``
    holds one Fraction per axis.  For iso(v) = e*v + s*L, mode k of f picks
    up unit_phase((k + t) * s) per axis and lands at the mode k' with
    k' + t = e*(k + t).  ``target[r]`` is the row of k', or -1 where k'
    leaves the window, and ``phase[r]`` is the product of the axis phases.
    A negation that moves the twist lattice raises ``BandLimitError``.
    """
    e, shift = _affine(iso, len(twist))
    phase = reduce(np.multiply.outer, [phase_vector(M, t, s) for t, s in zip(twist, shift)]).reshape(-1)
    if e == 1:  # a translation keeps every mode in place
        return np.arange(phase.size, dtype=np.int32), phase
    offsets = [(e - 1) * t for t in twist]
    if any(o % 1 != 0 for o in offsets):
        raise BandLimitError("negation does not preserve this twist lattice")
    ks = np.arange(-M, M + 1, dtype=np.int32)
    rows, inside = np.zeros((), np.int32), np.ones((), bool)
    for o in offsets:
        lands = e * ks + int(o)
        rows = np.add.outer(rows * (2 * M + 1), lands + M)
        inside = np.logical_and.outer(inside, np.abs(lands) <= M)
    return np.where(inside, rows, -1).reshape(-1), phase


class ModeData:
    """Band-limited coefficients on a flat circle (n = 1) or 2-torus (n = 2).

    ``coeffs`` has shape ``(2*cutoff+1,)*n + fibre``; the entry at
    ``k + cutoff`` (one index per axis) multiplies exp(i*sum_i w_i*x_i)
    with w_i = (TAU/L_i)*(k_i + twist_i).  Twist 0 gives periodic
    functions along an axis, twist 1/2 antiperiodic (spinor) sections.
    ``twists`` holds one twist per axis; the subclasses fix n and spell the
    base and the twist as before: ``CircleModes.circle`` with a Fraction
    ``twist``, ``TorusModes.torus`` with a pair.
    """

    __slots__ = ("base", "cutoff", "twists", "coeffs")
    n: int  # the number of axes
    _shape_error: str

    def __init__(self, base, cutoff, coeffs, twist=None):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape[: self.n] != (2 * cutoff + 1,) * self.n:
            raise ValueError(self._shape_error)
        if twist is None:
            twist = (0,) * self.n
        elif self.n == 1:
            twist = (twist,)
        self.base = base
        self.cutoff = int(cutoff)
        self.twists = tuple(map(_frac, twist))
        self.coeffs = coeffs

    @property
    def twist(self):
        return self.twists[0] if self.n == 1 else self.twists

    # -- constructors

    @classmethod
    def zero(cls, base, cutoff, fibre_shape=(), twist=None):
        return cls(base, cutoff, np.zeros((2 * cutoff + 1,) * cls.n + tuple(fibre_shape)), twist)

    @classmethod
    def mode(cls, base, cutoff, k, twist=None, amplitude=1.0):
        """The single mode ``k``: an int on a circle, a pair on a torus."""
        out = cls.zero(base, cutoff, twist=twist)
        out.coeffs[tuple(np.reshape(k, cls.n) + cutoff)] = amplitude
        return out

    @classmethod
    def random(cls, base, cutoff, rng, fibre_shape=(), twist=None, degree=None):
        degree = cutoff if degree is None else degree
        out = cls.zero(base, cutoff, fibre_shape, twist)
        shape = (2 * degree + 1,) * cls.n + tuple(fibre_shape)
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out.coeffs[(slice(cutoff - degree, cutoff + degree + 1),) * cls.n] = block
        return out

    def with_coeffs(self, coeffs):
        """The same base, cutoff and twist with other coefficients."""
        return type(self)(self.base, self.cutoff, coeffs, self.twist)

    def copy(self):
        return self.with_coeffs(self.coeffs.copy())

    # -- structure

    @property
    def modes(self):
        return np.arange(-self.cutoff, self.cutoff + 1)

    @property
    def fibre_shape(self):
        return self.coeffs.shape[self.n :]

    def _support(self) -> np.ndarray:
        """The mask of the modes with a nonzero coefficient anywhere in the fibre."""
        return (self.coeffs != 0).reshape(self.coeffs.shape[: self.n] + (-1,)).any(axis=-1)

    def nonzero_modes(self):
        """The labels of the nonzero modes as n-tuples, row-major."""
        for pos in np.argwhere(self._support()):
            yield tuple(int(p) - self.cutoff for p in pos)

    def degree(self):
        pos = np.argwhere(self._support())
        return int(np.abs(pos - self.cutoff).max()) if len(pos) else 0

    def frequencies(self, axis=0):
        return (TAU / self.base.lengths[axis]) * (self.modes + float(self.twists[axis]))

    def with_cutoff(self, cutoff):
        if cutoff < self.degree():
            raise BandLimitError("cutoff change would drop nonzero modes")
        out = self.zero(self.base, cutoff, self.fibre_shape, self.twist)
        lo = min(self.cutoff, cutoff)
        keep = (slice(self.cutoff - lo, self.cutoff + lo + 1),) * self.n
        out.coeffs[(slice(cutoff - lo, cutoff + lo + 1),) * self.n] = self.coeffs[keep]
        return out

    # -- evaluation

    def evaluate(self, *points):
        """Values on the grid of one coordinate array per axis: ``evaluate(xs)``
        on a circle, ``evaluate(xs, ys)`` on a torus."""
        if len(points) != self.n:
            raise TypeError(f"{type(self).__name__}.evaluate takes {self.n} coordinate array(s)")
        out = self.coeffs
        for axis, xs in enumerate(points):
            basis = np.exp(1j * np.outer(np.asarray(xs, dtype=float), self.frequencies(axis)))
            out = np.moveaxis(np.tensordot(basis, out, axes=(1, axis)), 0, axis)
        return out

    # -- algebra

    def _binary(self, other, op):
        if isinstance(other, ModeData):
            if other.cutoff != self.cutoff or other.twists != self.twists:
                raise ValueError("mismatched cutoffs or twists")
            other = other.coeffs
        return self.with_coeffs(op(self.coeffs, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return self.with_coeffs(self.coeffs * scalar)

    __rmul__ = __mul__

    def mul(self, other):
        """Pointwise product with a scalar function (an untwisted factor with no fibre).

        The result keeps all modes (cutoff = sum of degrees), with the
        twist of the other operand.  Each nonzero mode of the scalar factor,
        in row-major order, adds one shifted copy of the other operand.
        """
        a, b = self, other
        if b.fibre_shape != () or any(b.twists):
            if a.fibre_shape != () or any(a.twists):
                raise ValueError("one factor must be an untwisted scalar function")
            a, b = b, a
        da, nz = a.degree(), np.argwhere(b._support())
        db = int(np.abs(nz - b.cutoff).max()) if len(nz) else 0
        out = self.zero(self.base, da + db, a.fibre_shape, a.twist)
        window = a.coeffs[(slice(a.cutoff - da, a.cutoff + da + 1),) * a.n]
        for pos in nz:
            # mode l of b moves mode k of a to k + l: out index k + l + da + db
            at = tuple(slice(p - b.cutoff + db, p - b.cutoff + db + 2 * da + 1) for p in pos)
            out.coeffs[at] += window * b.coeffs[tuple(pos)]
        return out

    def derivative(self, axis=0):
        """The partial derivative along one axis."""
        shape = [1] * self.coeffs.ndim
        shape[axis] = 2 * self.cutoff + 1
        return self.with_coeffs(1j * self.frequencies(axis).reshape(shape) * self.coeffs)

    def pullback(self, iso):
        """result(v) = self(iso(v)): the mode permutation and phases of ``mode_map``.

        A translation keeps every mode in place, so it only multiplies by
        the phases.  A negation moves the nonzero modes; one that would
        leave the window raises ``BandLimitError``.
        """
        fibre = (1,) * len(self.fibre_shape)
        if _affine(iso, self.n)[0] == 1:
            _, phase = mode_map(self.cutoff, self.twists, iso)
            return self.with_coeffs(phase.reshape(self.coeffs.shape[: self.n] + fibre) * self.coeffs)
        out = self.zero(self.base, self.cutoff, self.fibre_shape, self.twist)
        rows = np.flatnonzero(self._support())
        if rows.size == 0:
            return out
        target, phase = mode_map(self.cutoff, self.twists, iso)
        if (target[rows] < 0).any():
            raise BandLimitError("pullback leaves the truncation window")
        flat = (-1,) + self.fibre_shape
        moved = phase[rows].reshape((-1,) + fibre) * self.coeffs.reshape(flat)[rows]
        out.coeffs.reshape(flat)[target[rows]] = moved
        return out


class CircleModes(ModeData):
    """Mode data on a circle: ``coeffs`` has shape (2*cutoff+1, *fibre) and
    ``twist`` is a Fraction."""

    __slots__ = ()
    n = 1
    _shape_error = "coefficient axis does not match cutoff"

    @property
    def circle(self) -> FourierCircle:
        return self.base


class TorusModes(ModeData):
    """Mode data on a flat 2-torus: coeffs[k1+M, k2+M, *fibre], and ``twist``
    is a pair."""

    __slots__ = ()
    n = 2
    _shape_error = "coefficient axes do not match cutoff"

    @property
    def torus(self) -> FourierTorus:
        return self.base


def mode_class(base):
    """``CircleModes`` or ``TorusModes``: the mode data of a Fourier base."""
    if isinstance(base, FourierCircle):
        return CircleModes
    if isinstance(base, FourierTorus):
        return TorusModes
    raise CatalogError(f"no mode data on base {base!r}")
