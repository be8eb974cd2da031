"""Catalog base spaces: finite label sets, flat circles and flat tori.

Coordinates on the continuous bases are arclength in [0, L).  Isometry data
is kept as exact rational turns (fractions of a full circumference), so
composing germs, comparing them and moving mode indices around are exact
operations; floating point only enters when coefficients are evaluated.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

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

    def freq(self, k, twist=0):
        return (TAU / self.circumference) * (float(k) + float(twist))


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

    def freq(self, k, twist=(0, 0)):
        return tuple(
            (TAU / L) * (float(ki) + float(ti))
            for L, ki, ti in zip(self.circumferences, k, twist)
        )


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

    def is_identity(self) -> bool:
        return self.turns == 0

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

    def is_identity(self) -> bool:
        return not self.negate and all(s == 0 for s in self.shift)

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

    def is_identity(self) -> bool:
        return all(x == y for x, y in self.pairs)


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


class CircleModes:
    """Band-limited coefficients on a circle.

    ``coeffs`` has shape (2*cutoff+1, *fibre); mode k sits at index
    k+cutoff and multiplies exp(i*(TAU/L)*(k+twist)*x).  twist 0 gives
    periodic functions, twist 1/2 antiperiodic (spinor) sections.
    """

    __slots__ = ("circle", "cutoff", "twist", "coeffs")

    def __init__(self, circle: FourierCircle, cutoff: int, coeffs, twist=Fraction(0)):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape[0] != 2 * cutoff + 1:
            raise ValueError("coefficient axis does not match cutoff")
        self.circle = circle
        self.cutoff = int(cutoff)
        self.twist = _frac(twist)
        self.coeffs = coeffs

    # -- constructors

    @classmethod
    def zero(cls, circle, cutoff, fibre_shape=(), twist=Fraction(0)):
        return cls(circle, cutoff, np.zeros((2 * cutoff + 1, *fibre_shape)), twist)

    @classmethod
    def mode(cls, circle, cutoff, k, twist=Fraction(0), amplitude=1.0):
        out = cls.zero(circle, cutoff, twist=twist)
        out.coeffs[k + cutoff] = amplitude
        return out

    @classmethod
    def random(cls, circle, cutoff, rng, fibre_shape=(), twist=Fraction(0), degree=None):
        degree = cutoff if degree is None else degree
        out = cls.zero(circle, cutoff, fibre_shape, twist)
        shape = (2 * degree + 1, *fibre_shape)
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out.coeffs[cutoff - degree : cutoff + degree + 1] = block
        return out

    # -- structure

    @property
    def modes(self):
        return np.arange(-self.cutoff, self.cutoff + 1)

    @property
    def fibre_shape(self):
        return self.coeffs.shape[1:]

    def degree(self):
        flat = self.coeffs.reshape(self.coeffs.shape[0], -1)
        nz = np.nonzero(np.abs(flat).max(axis=1) > 0)[0]
        if nz.size == 0:
            return 0
        return int(max(abs(nz - self.cutoff)))

    def frequencies(self):
        return (TAU / self.circle.circumference) * (self.modes + float(self.twist))

    def copy(self):
        return CircleModes(self.circle, self.cutoff, self.coeffs.copy(), self.twist)

    def with_cutoff(self, cutoff):
        if cutoff < self.degree():
            raise BandLimitError("cutoff change would drop nonzero modes")
        out = CircleModes.zero(self.circle, cutoff, self.fibre_shape, self.twist)
        lo = min(self.cutoff, cutoff)
        out.coeffs[cutoff - lo : cutoff + lo + 1] = self.coeffs[
            self.cutoff - lo : self.cutoff + lo + 1
        ]
        return out

    # -- evaluation

    def evaluate(self, xs):
        xs = np.asarray(xs, dtype=float)
        basis = np.exp(1j * np.outer(xs, self.frequencies()))
        return np.tensordot(basis, self.coeffs, axes=(1, 0))

    # -- algebra

    def _binary(self, other, op):
        if isinstance(other, CircleModes):
            if other.cutoff != self.cutoff or other.twist != self.twist:
                raise ValueError("mismatched cutoffs or twists")
            return CircleModes(self.circle, self.cutoff, op(self.coeffs, other.coeffs), self.twist)
        return CircleModes(self.circle, self.cutoff, op(self.coeffs, other), self.twist)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return CircleModes(self.circle, self.cutoff, self.coeffs * scalar, self.twist)

    __rmul__ = __mul__

    def mul(self, other: "CircleModes") -> "CircleModes":
        """Pointwise product with a scalar function (twist 0 factor).

        The result keeps all modes (cutoff = sum of degrees), with the
        twist of the non-scalar operand.
        """
        a, b = self, other
        if b.fibre_shape != () or b.twist != 0:
            if a.fibre_shape != () or a.twist != 0:
                raise ValueError("one factor must be an untwisted scalar function")
            a, b = b, a
        da, db = a.degree(), b.degree()
        out_cut = da + db
        out = CircleModes.zero(self.circle, out_cut, a.fibre_shape, a.twist)
        bf = b.coeffs[b.cutoff - db : b.cutoff + db + 1]
        af = a.coeffs[a.cutoff - da : a.cutoff + da + 1]
        # direct convolution over the mode axis
        for i, ka in enumerate(range(-da, da + 1)):
            ai = af[i]
            if not np.any(ai):
                continue
            for j, kb in enumerate(range(-db, db + 1)):
                bj = bf[j]
                if not np.any(bj):
                    continue
                out.coeffs[ka + kb + out_cut] += ai * bj
        return out

    def derivative(self) -> "CircleModes":
        freqs = self.frequencies().reshape((-1,) + (1,) * len(self.fibre_shape))
        return CircleModes(self.circle, self.cutoff, 1j * freqs * self.coeffs, self.twist)

    def rotate_pullback(self, turns) -> "CircleModes":
        """Pullback under rotation: result(x) = self(x + turns*L)."""
        phases = phase_vector(self.cutoff, self.twist, turns)
        phases = phases.reshape((-1,) + (1,) * len(self.fibre_shape))
        return CircleModes(self.circle, self.cutoff, phases * self.coeffs, self.twist)

    def conj(self) -> "CircleModes":
        # conj of mode k has frequency -(k+t) = (k'+t) with k' = -k-2t,
        # which stays on the same lattice when 2t is an integer
        if 2 * self.twist % 1 != 0:
            raise ValueError("conjugation needs an integer or half-integer twist lattice")
        shift = int(2 * self.twist)
        out = CircleModes.zero(self.circle, self.cutoff + shift, self.fibre_shape, self.twist)
        for k in self.modes:
            out.coeffs[-int(k) - shift + out.cutoff] = np.conj(self.coeffs[int(k) + self.cutoff])
        return out


class TorusModes:
    """Band-limited coefficients on a flat 2-torus.

    coeffs[k1+M, k2+M, *fibre] multiplies exp(i*(w1*x1 + w2*x2)) with
    wi = (TAU/Li)*(ki+twist_i).
    """

    __slots__ = ("torus", "cutoff", "twist", "coeffs")

    def __init__(self, torus: FourierTorus, cutoff: int, coeffs, twist=(Fraction(0), Fraction(0))):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape[0] != 2 * cutoff + 1 or coeffs.shape[1] != 2 * cutoff + 1:
            raise ValueError("coefficient axes do not match cutoff")
        self.torus = torus
        self.cutoff = int(cutoff)
        self.twist = tuple(_frac(t) for t in twist)
        self.coeffs = coeffs

    @classmethod
    def zero(cls, torus, cutoff, fibre_shape=(), twist=(Fraction(0), Fraction(0))):
        n = 2 * cutoff + 1
        return cls(torus, cutoff, np.zeros((n, n, *fibre_shape)), twist)

    @classmethod
    def mode(cls, torus, cutoff, k, twist=(Fraction(0), Fraction(0)), amplitude=1.0):
        out = cls.zero(torus, cutoff, twist=twist)
        out.coeffs[k[0] + cutoff, k[1] + cutoff] = amplitude
        return out

    @property
    def modes(self):
        return np.arange(-self.cutoff, self.cutoff + 1)

    @property
    def fibre_shape(self):
        return self.coeffs.shape[2:]

    def degree(self):
        flat = np.abs(self.coeffs).reshape(self.coeffs.shape[0], self.coeffs.shape[1], -1).max(axis=2)
        idx = np.nonzero(flat > 0)
        if idx[0].size == 0:
            return 0
        return int(
            max(
                np.abs(idx[0] - self.cutoff).max(),
                np.abs(idx[1] - self.cutoff).max(),
            )
        )

    def nonzero_modes(self):
        flat = np.abs(self.coeffs).reshape(self.coeffs.shape[0], self.coeffs.shape[1], -1).max(axis=2)
        for i, j in zip(*np.nonzero(flat > 0)):
            yield int(i - self.cutoff), int(j - self.cutoff)

    def evaluate(self, xs, ys):
        f1 = (TAU / self.torus.circumferences[0]) * (self.modes + float(self.twist[0]))
        f2 = (TAU / self.torus.circumferences[1]) * (self.modes + float(self.twist[1]))
        b1 = np.exp(1j * np.outer(np.asarray(xs, float), f1))
        b2 = np.exp(1j * np.outer(np.asarray(ys, float), f2))
        return np.einsum("xa,yb,ab...->xy...", b1, b2, self.coeffs)

    def mul(self, other: "TorusModes") -> "TorusModes":
        a, b = self, other
        if b.fibre_shape != () or any(t != 0 for t in b.twist):
            if a.fibre_shape != () or any(t != 0 for t in a.twist):
                raise ValueError("one factor must be an untwisted scalar function")
            a, b = b, a
        out_cut = a.degree() + b.degree()
        out = TorusModes.zero(self.torus, out_cut, a.fibre_shape, a.twist)
        for kb in b.nonzero_modes():
            bv = b.coeffs[kb[0] + b.cutoff, kb[1] + b.cutoff]
            for ka in a.nonzero_modes():
                av = a.coeffs[ka[0] + a.cutoff, ka[1] + a.cutoff]
                out.coeffs[ka[0] + kb[0] + out_cut, ka[1] + kb[1] + out_cut] += av * bv
        return out

    def __add__(self, other):
        if other.cutoff != self.cutoff or other.twist != self.twist:
            raise ValueError("mismatched cutoffs or twists")
        return TorusModes(self.torus, self.cutoff, self.coeffs + other.coeffs, self.twist)

    def __sub__(self, other):
        if other.cutoff != self.cutoff or other.twist != self.twist:
            raise ValueError("mismatched cutoffs or twists")
        return TorusModes(self.torus, self.cutoff, self.coeffs - other.coeffs, self.twist)

    def __mul__(self, scalar):
        return TorusModes(self.torus, self.cutoff, self.coeffs * scalar, self.twist)

    __rmul__ = __mul__

    def derivative(self, axis: int) -> "TorusModes":
        freqs = (TAU / self.torus.circumferences[axis]) * (
            self.modes + float(self.twist[axis])
        )
        shape = [1, 1] + [1] * len(self.fibre_shape)
        shape[axis] = 2 * self.cutoff + 1
        return TorusModes(
            self.torus, self.cutoff, 1j * freqs.reshape(shape) * self.coeffs, self.twist
        )

    def pullback(self, iso: TorusIsometry) -> "TorusModes":
        """result(v) = self(iso(v)); exact coefficient permutation + phase.

        Mode w of self(e*v + s*L) picks up unit_phase((k+t)*s) per axis and
        lands at frequency e*w, i.e. at the index k' with k'+t = e*(k+t).
        """
        out = TorusModes.zero(self.torus, self.cutoff, self.fibre_shape, self.twist)
        M = self.cutoff
        rows, cols = np.nonzero(np.abs(self.coeffs).reshape(2 * M + 1, 2 * M + 1, -1).max(axis=2) > 0)
        if rows.size == 0:
            return out
        e = -1 if iso.negate else 1
        offsets = [(e - 1) * t for t in self.twist]
        if any(o % 1 != 0 for o in offsets):
            raise BandLimitError("negation does not preserve this twist lattice")
        o1 = e * (rows - M) + int(offsets[0])
        o2 = e * (cols - M) + int(offsets[1])
        if max(np.abs(o1).max(), np.abs(o2).max()) > M:
            raise BandLimitError("pullback leaves the truncation window")
        p1 = phase_vector(M, self.twist[0], iso.shift[0])
        p2 = phase_vector(M, self.twist[1], iso.shift[1])
        ph = (p1[rows] * p2[cols]).reshape((-1,) + (1,) * len(self.fibre_shape))
        out.coeffs[o1 + M, o2 + M] = ph * self.coeffs[rows, cols]
        return out
