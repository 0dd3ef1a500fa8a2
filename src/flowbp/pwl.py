"""Exact algebra of piecewise-linear convex functions.

A :class:`PwlConvex` is a convex function that is linear on finitely many
pieces, takes the value ``+inf`` outside a (possibly unbounded) interval,
and is stored exactly: integer breakpoints, integer slopes, and one integer
anchor value.  All operations are pure and closed under this representation,
so no rounding ever occurs; values may grow without bound and rely on
Python's arbitrary-precision integers.

The two nontrivial operations are :func:`inf_convolve2`, the infimal
convolution ``(f # g)(t) = min {f(x) + g(t - x)}``, and
:func:`scaled_interpolation`, its k-way variant under a signed-sum coupling
``sum(a_i * x_i) = t``.  Both are exact and run in time linear (respectively
near-linear) in the total number of pieces: the pieces of ``f # g`` are the
pieces of ``f`` and ``g`` stitched together in slope order.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Sequence, Union

from .errors import (
    AnchorOutOfDomainError,
    EmptyDomainError,
    MalformedDomainError,
    NonConvexError,
    UnboundedError,
)

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Extended integer: a plain int, or one of the two infinities.
Extended = Union[int, float]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _ext_ok(x) -> bool:
    return _is_int(x) or x == NEG_INF or x == POS_INF


class PwlConvex:
    """A piecewise-linear convex function with exact integer data.

    ``breakpoints`` is a strictly increasing sequence ``a_0 < ... < a_k``
    of extended integers (only the two ends may be infinite) and ``slopes``
    a strictly increasing sequence of ``k`` integers; piece ``i`` has slope
    ``slopes[i]`` on ``[a_i, a_{i+1}]``.  ``k = 0`` encodes the indicator
    of a single point.  ``anchor = (z0, value)`` pins the height at one
    finite point of the domain.  Outside ``[a_0, a_k]`` the value is
    ``+inf``.

    Equal-slope adjacent pieces are merged on construction, so instances
    are canonical: two represent the same function iff they compare equal.
    Instances are immutable and safe to share between threads.

    Public construction (``PwlConvex(...)``, :meth:`constant`,
    :meth:`point`, :meth:`linear`) and :meth:`from_json_dict` validate
    every input.  Results of the algebra (:func:`inf_convolve2`,
    :meth:`add`, :meth:`compose_affine`, :meth:`tilt`) are canonical by
    construction (the convolution merges equal slopes while it stitches)
    and take the internal :meth:`_trusted` path, which only settles.
    """

    __slots__ = ("breakpoints", "slopes", "anchor", "_values")

    def __init__(
        self,
        breakpoints: Sequence[Extended],
        slopes: Sequence[int],
        anchor: tuple[int, int],
    ):
        bks = tuple(breakpoints)
        sls = tuple(slopes)
        if not bks:
            raise MalformedDomainError("need at least one breakpoint")
        for b in bks:
            if not _ext_ok(b):
                raise MalformedDomainError(f"breakpoint {b!r} is not an extended integer")
        for b in bks[1:-1]:
            if not _is_int(b):
                raise MalformedDomainError("only the end breakpoints may be infinite")
        if bks[0] == POS_INF or bks[-1] == NEG_INF:
            raise MalformedDomainError("domain ends are inverted")
        for lo, hi in zip(bks, bks[1:]):
            if not lo < hi:
                raise MalformedDomainError(f"breakpoints not strictly increasing: {bks}")
        for s in sls:
            if not _is_int(s):
                raise NonConvexError(f"slope {s!r} is not an integer")
        for a, b in zip(sls, sls[1:]):
            if a > b:
                raise NonConvexError(f"slopes not increasing: {sls}")
        if len(sls) != len(bks) - 1:
            raise MalformedDomainError(
                f"{len(bks)} breakpoints require {len(bks) - 1} slopes, got {len(sls)}"
            )
        if len(bks) == 1 and not _is_int(bks[0]):
            raise MalformedDomainError("a single-point domain must be finite")
        z0, v0 = anchor
        if not (_is_int(z0) and _is_int(v0)):
            raise AnchorOutOfDomainError(f"anchor {anchor!r} must be a pair of integers")
        if not (bks[0] <= z0 <= bks[-1]):
            raise AnchorOutOfDomainError(f"anchor point {z0} outside domain [{bks[0]}, {bks[-1]}]")
        if any(map(operator.eq, sls, sls[1:])):  # merge runs of equal slopes
            mb, ms = [bks[0]], []
            for i, s in enumerate(sls):
                if ms and ms[-1] == s:
                    mb[-1] = bks[i + 1]
                else:
                    ms.append(s)
                    mb.append(bks[i + 1])
            bks, sls = tuple(mb), tuple(ms)
        self.breakpoints = bks
        self.slopes = sls
        self.anchor, self._values = self._settle(bks, sls, z0, v0)

    @classmethod
    def _trusted(cls, breakpoints, slopes, anchor: tuple[int, int]) -> "PwlConvex":
        """Construct from canonical data: strictly increasing breakpoints
        and slopes, which every algebra result in this module has.

        Only :meth:`_settle` runs; the input checks and the equal-slope
        merge of ``__init__`` do not.
        """
        f = object.__new__(cls)
        f.breakpoints = bks = tuple(breakpoints)
        f.slopes = sls = tuple(slopes)
        f.anchor, f._values = cls._settle(bks, sls, *anchor)
        return f

    @staticmethod
    def _settle(bks, sls, z0, v0):
        """Compute values at all finite breakpoints and the canonical anchor."""
        n = len(bks)
        if n == 1:
            return (bks[0], v0), (v0,)
        # Only the two ends may be infinite.
        first_fin = 1 if bks[0] == NEG_INF else 0
        last_fin = n - 2 if bks[-1] == POS_INF else n - 1
        if first_fin > last_fin:  # single piece covering all of R
            return (0, v0 - sls[0] * z0), (None, None)
        # Height at the finite breakpoint nearest the given anchor point.
        i = bisect_left(bks, z0)  # >= first_fin, since z0 is finite
        if i < n and bks[i] == z0:
            base_i, base_v = i, v0
        elif i <= last_fin:
            base_i, base_v = i, v0 + sls[i - 1] * (bks[i] - z0)
        else:
            base_i, base_v = i - 1, v0 - sls[i - 1] * (z0 - bks[i - 1])
        vals: list = [None] * n
        vals[base_i] = base_v
        for j in range(base_i + 1, last_fin + 1):
            vals[j] = vals[j - 1] + sls[j - 1] * (bks[j] - bks[j - 1])
        for j in range(base_i - 1, first_fin - 1, -1):
            vals[j] = vals[j + 1] - sls[j] * (bks[j + 1] - bks[j])
        return (bks[first_fin], vals[first_fin]), tuple(vals)

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: int = 0) -> "PwlConvex":
        """The constant function ``value`` on all of R (one zero-slope piece)."""
        return cls((NEG_INF, POS_INF), (0,), (0, value))

    @classmethod
    def point(cls, x: int, value: int) -> "PwlConvex":
        """Indicator of the single point ``x``: ``value`` there, ``+inf`` elsewhere."""
        return cls((x,), (), (x, value))

    @classmethod
    def linear(cls, slope: int, lo: int, hi: Extended, value_at_lo: int = 0) -> "PwlConvex":
        """``slope * (z - lo) + value_at_lo`` on ``[lo, hi]`` (``hi`` may be inf)."""
        if hi == lo:
            return cls.point(lo, value_at_lo)
        return cls((lo, hi), (slope,), (lo, value_at_lo))

    # -- basic queries -------------------------------------------------------

    @property
    def piece_count(self) -> int:
        """Number of linear pieces (0 for a point indicator)."""
        return len(self.slopes)

    @property
    def domain(self) -> tuple[Extended, Extended]:
        return self.breakpoints[0], self.breakpoints[-1]

    def evaluate(self, z: Union[int, Fraction]) -> Union[int, Fraction, float]:
        """Exact value at ``z`` (``+inf`` outside the domain).

        ``z`` may be a :class:`fractions.Fraction`; stored data stays
        integral, but rational query points let test oracles probe between
        breakpoints exactly.
        """
        bks = self.breakpoints
        if z < bks[0] or z > bks[-1]:
            return POS_INF
        if len(bks) == 1:
            return self._values[0] if z == bks[0] else POS_INF
        vals = self._values
        i = bisect_left(bks, z)
        if i < len(bks) and bks[i] == z and vals[i] is not None:
            return vals[i]
        if i < len(bks) and vals[i] is not None:
            return vals[i] - self.slopes[i - 1] * (bks[i] - z)
        if vals[i - 1] is not None:
            return vals[i - 1] + self.slopes[i - 1] * (z - bks[i - 1])
        # Single piece covering all of R: fall back to the anchor.
        z0, v0 = self.anchor
        return v0 + self.slopes[0] * (z - z0)

    __call__ = evaluate

    def argmin(self) -> int:
        """The smallest minimizer.

        Ties resolve to the smallest point of the arg-min set.  When the
        arg-min set is unbounded below (a flat piece reaching ``-inf``),
        the finite right edge of the flat region is returned as its
        representative.  Raises :class:`UnboundedError` when the function
        decreases forever toward an infinite domain end.
        """
        bks, sls = self.breakpoints, self.slopes
        if not sls:
            return bks[0]
        j = bisect_left(sls, 0)
        if j < len(sls) and sls[j] == 0:
            p = bks[j]
            return p if _is_int(p) else bks[j + 1]
        # j is the first strictly positive slope; pieces before j decrease.
        p = bks[j]
        if not _is_int(p):
            raise UnboundedError("function decreases toward an infinite domain end")
        return p

    def right_derivative(self, x: Extended) -> int:
        """Slope of the piece immediately to the right of ``x`` (x < a_k)."""
        i = bisect_right(self.breakpoints, x)
        return self.slopes[i - 1 if i > 0 else 0]

    def left_derivative(self, x: Extended) -> int:
        """Slope of the piece immediately to the left of ``x`` (x > a_0)."""
        i = bisect_left(self.breakpoints, x)
        return self.slopes[min(i, len(self.slopes)) - 1]


    def pieces(self) -> list[tuple[int, Extended]]:
        """The multiset of (slope, length) pieces, in slope order."""
        bks, sls = self.breakpoints, self.slopes
        k = len(sls)
        if not k:
            return []
        # Only the end pieces can be infinite; never subtract a bigint from
        # an infinity (the float conversion overflows).
        lo_inf = bks[0] == NEG_INF
        hi_inf = bks[-1] == POS_INF
        first, last = int(lo_inf), k - hi_inf
        if first > last:  # one piece covering all of R
            return [(sls[0], POS_INF)]
        lengths = map(operator.sub, bks[first + 1 : last + 1], bks[first:last])
        out = list(zip(sls[first:last], lengths))
        if lo_inf:
            out.insert(0, (sls[0], POS_INF))
        if hi_inf:
            out.append((sls[-1], POS_INF))
        return out

    # -- algebra -------------------------------------------------------------

    def add(self, other: "PwlConvex") -> "PwlConvex":
        """Pointwise sum, defined on the intersection of the two domains.

        Raises :class:`EmptyDomainError` when the domains are disjoint
        (the sum would be ``+inf`` everywhere).
        """
        lo = max(self.breakpoints[0], other.breakpoints[0])
        hi = min(self.breakpoints[-1], other.breakpoints[-1])
        if lo > hi:
            raise EmptyDomainError("domains do not intersect")
        return _pointwise(operator.add, self, other, lo, hi)

    __add__ = add

    def compose_affine(self, a: int, b: int) -> "PwlConvex":
        """The function ``z -> f(a*z + b)`` for ``a`` in ``{+1, -1}``.

        For ``a = -1`` the breakpoints reflect and the slope sequence
        negates and reverses, so convexity is preserved exactly.
        """
        if a not in (1, -1):
            raise ValueError(f"affine scale must be +1 or -1, got {a!r}")
        if not _is_int(b):
            raise ValueError(f"affine shift must be an integer, got {b!r}")
        if a == 1 and b == 0:
            return self
        z0, v0 = self.anchor
        bks = self.breakpoints
        lo_inf = bks[0] == NEG_INF
        hi_inf = bks[-1] == POS_INF
        finite = bks[lo_inf : len(bks) - hi_inf]  # only the ends may be infinite
        if a == 1:
            out, sls, z = [x - b for x in finite], self.slopes, z0 - b
        else:
            out = [b - x for x in reversed(finite)]
            sls, z = [-s for s in reversed(self.slopes)], b - z0
            lo_inf, hi_inf = hi_inf, lo_inf  # the reflection swaps the ends
        if lo_inf:
            out.insert(0, NEG_INF)
        if hi_inf:
            out.append(POS_INF)
        return PwlConvex._trusted(out, sls, (z, v0))

    def tilt(self, slope: int) -> "PwlConvex":
        """The exact sum ``f(z) + slope * z`` (every piece slope shifts).

        Raises :class:`NonConvexError` when ``slope`` is not an integer.
        """
        if not _is_int(slope):
            raise NonConvexError(f"tilt slope {slope!r} is not an integer")
        if slope == 0:
            return self
        z0, v0 = self.anchor
        return PwlConvex._trusted(
            self.breakpoints,
            [s + slope for s in self.slopes],
            (z0, v0 + slope * z0),
        )

    # -- slope support (needed by the convolution) ---------------------------

    def _slope_bounds(self) -> tuple[Extended, Extended]:
        """The closed range of slopes of affine minorants of ``f``.

        The lower end is the first slope when the domain reaches ``-inf``
        (else ``-inf`` itself); symmetrically for the upper end.
        """
        if not self.slopes:
            return NEG_INF, POS_INF
        lo = self.slopes[0] if self.breakpoints[0] == NEG_INF else NEG_INF
        hi = self.slopes[-1] if self.breakpoints[-1] == POS_INF else POS_INF
        return lo, hi

    def _split_at_tilt(self, s: int):
        """A finite minimizer ``p`` of ``f(x) - s*x`` with ``f(p)``, plus the
        pieces strictly left of ``p`` (slope-descending) and right of ``p``
        (slope-ascending).  ``s`` must lie in the slope range of ``f``."""
        bks, sls = self.breakpoints, self.slopes
        k = len(sls)
        if k == 0:
            return bks[0], self._values[0], [], []
        pcs = self.pieces()
        j = bisect_right(sls, s)
        if j == k and bks[-1] == POS_INF:
            # The tilted function is flat on the last (infinite) piece.
            if k == 1 and bks[0] == NEG_INF:
                p = self.anchor[0]
                return p, self.anchor[1], [pcs[0]], [pcs[0]]
            p = bks[k - 1]
            return p, self.evaluate(p), pcs[: k - 1][::-1], [pcs[k - 1]]
        p = bks[j]
        return p, self.evaluate(p), pcs[:j][::-1], pcs[j:]

    # -- serialization & identity --------------------------------------------

    def to_json_dict(self) -> dict:
        """Debug form: breakpoints/slopes/anchor with string infinities."""

        def enc(x):
            if x == NEG_INF:
                return "-inf"
            if x == POS_INF:
                return "inf"
            return x

        return {
            "breakpoints": [enc(b) for b in self.breakpoints],
            "slopes": list(self.slopes),
            "anchor": list(self.anchor),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PwlConvex":
        def dec(x):
            if x == "-inf":
                return NEG_INF
            if x == "inf":
                return POS_INF
            return x

        return cls([dec(b) for b in d["breakpoints"]], d["slopes"], tuple(d["anchor"]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PwlConvex):
            return NotImplemented
        return (
            self.breakpoints == other.breakpoints
            and self.slopes == other.slopes
            and self.anchor == other.anchor
        )

    def __hash__(self) -> int:
        return hash((self.breakpoints, self.slopes, self.anchor))

    def __repr__(self) -> str:
        return f"PwlConvex(breakpoints={self.breakpoints}, slopes={self.slopes}, anchor={self.anchor})"


def _pointwise(op, f: PwlConvex, g: PwlConvex, lo: Extended, hi: Extended) -> PwlConvex:
    """``op(f, g)`` pointwise on ``[lo, hi]``, where both are finite.

    ``op`` is ``operator.add`` or ``operator.sub``; it combines the slopes
    on the union of the operands' breakpoints and the anchor heights.  A sum
    of convex functions is convex, so it takes the trusted path; a
    difference need not be, so it is validated.
    """
    build = PwlConvex._trusted if op is operator.add else PwlConvex
    if lo == hi:
        return build((lo,), (), (lo, op(f.evaluate(lo), g.evaluate(lo))))
    # The strict bounds also drop both infinities.
    interior = sorted({b for b in f.breakpoints + g.breakpoints if lo < b < hi})
    bks = [lo, *interior, hi]
    sls = [op(f.right_derivative(b), g.right_derivative(b)) for b in bks[:-1]]
    # The first finite breakpoint; 0 anchors two single pieces on all of R.
    z = lo if lo != NEG_INF else (bks[1] if bks[1] != POS_INF else 0)
    return build(bks, sls, (z, op(f.evaluate(z), g.evaluate(z))))


def inf_convolve2(f: PwlConvex, g: PwlConvex) -> PwlConvex:
    """Exact infimal convolution ``t -> min {f(x1) + g(x2) : x1 + x2 = t}``.

    The result's pieces are the pieces of ``f`` and ``g`` stitched together
    in slope order (so its piece count is at most ``p(f) + p(g)``), anchored
    at the sum of tilted minimizers of the operands.  Runs in time linear in
    the total piece count.

    Raises :class:`UnboundedError` when the minimum is ``-inf`` for every
    ``t``, i.e. when the operands decrease without bound in incompatible
    directions (their slope ranges are disjoint).
    """
    flo, fhi = f._slope_bounds()
    glo, ghi = g._slope_bounds()
    s_lo = max(flo, glo)
    s_hi = min(fhi, ghi)
    if s_lo > s_hi:
        raise UnboundedError("infimal convolution is -inf everywhere")
    if s_lo > 0:
        s_star = s_lo
    elif s_hi < 0:
        s_star = s_hi
    else:
        s_star = 0

    pf, vf, f_left, f_right = f._split_at_tilt(s_star)
    pg, vg, g_left, g_right = g._split_at_tilt(s_star)
    t0 = pf + pg
    v0 = vf + vg

    # Stitch outward from t0, merging pieces of equal slope (from f and g,
    # or on both sides of t0) so the result is canonical.
    bks: list[Extended] = [t0]
    sls: list[int] = []
    cur: Extended = t0
    for s, length in sorted(f_left + g_left, key=operator.itemgetter(0), reverse=True):
        cur = NEG_INF if length == POS_INF else cur - length
        if sls and sls[-1] == s:
            bks[-1] = cur
        else:
            bks.append(cur)
            sls.append(s)
        if cur == NEG_INF:
            break
    bks.reverse()
    sls.reverse()
    cur = t0
    for s, length in sorted(f_right + g_right, key=operator.itemgetter(0)):
        cur = POS_INF if length == POS_INF else cur + length
        if sls and sls[-1] == s:
            bks[-1] = cur
        else:
            bks.append(cur)
            sls.append(s)
        if cur == POS_INF:
            break
    return PwlConvex._trusted(bks, sls, (t0, v0))


def scaled_interpolation(fs: Sequence[PwlConvex], signs: Sequence[int]) -> PwlConvex:
    """Exact ``t -> min {sum f_i(x_i) : sum signs_i * x_i = t}``.

    Each operand is first reflected according to its sign, then the pair
    convolutions are combined by a balanced binary reduction, which keeps
    the total work near-linear in the summed piece counts.
    """
    if len(fs) != len(signs) or not fs:
        raise ValueError("need one sign per function and at least one function")
    level = [f if a == 1 else f.compose_affine(-1, 0) for f, a in zip(fs, signs)]
    while len(level) > 1:
        nxt = [
            inf_convolve2(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def pointwise_diff(f: PwlConvex, g: PwlConvex) -> PwlConvex:
    """Exact pointwise difference ``f - g`` on the domain of ``f``.

    Only valid when the difference is itself convex (as when ``g`` was
    previously added to a convex function to form ``f``); otherwise
    :class:`NonConvexError` is raised by construction.  ``f``'s domain must
    be contained in ``g``'s.
    """
    if g.breakpoints[0] > f.breakpoints[0] or g.breakpoints[-1] < f.breakpoints[-1]:
        raise EmptyDomainError("subtrahend is not finite on the minuend's domain")
    return _pointwise(operator.sub, f, g, f.breakpoints[0], f.breakpoints[-1])
