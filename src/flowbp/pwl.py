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
``sum(a_i * x_i) = t``.  Both are exact and run in time linear in the
total number of pieces, up to one sort: the pieces of ``f # g`` are the
pieces of ``f`` and ``g`` stitched together in slope order, and the k-way
result stitches every operand's pieces, reflected by its sign, the same way.

One kernel serves the message-passing engine.  :func:`node_messages`
computes all of a node's outgoing messages: for every operand, the
convolution of all the others (each reflected by its sign), re-parametrized
by an affine map and added to a cost.  It picks one tilt in the slope
range all operands share, read off their stored end slopes, and splits
each operand there once, straight from its stored breakpoints, slopes and
values (a reflected operand where the unreflected one splits at the
negated tilt), then sorts all tagged pieces once into one pair of lists.
Each output then takes one pass from that pair to its result object:
laid out in its arc's flow coordinate (shifted by ``b``; when ``a = -1``
the pair is read swapped, each slope negated as it is read, so no
reflected copy of the pieces is built), skipping its own operand's
pieces, clipped to the cost's domain, merged with the cost's slopes, and
carrying the value at every breakpoint, so the result is built without
settling.  A node of degree ``d`` costs ``d`` splits, one sort and ``d``
passes.  :func:`leave_one_out` and :func:`inf_convolve2` run the same
split, sort and pass with the zero function on R as the cost, and
:func:`add_composed` the same pass over one split operand.  All give
exactly what the pairwise operations give.  :func:`add_shared` sums two
functions that share a summand, as an arc's belief sums its two messages,
in one merge; :func:`argmin_shared` runs that merge only as far as the
sum's smallest minimizer and returns it with the slopes either side,
which is all the engine reads of a belief.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from itertools import chain
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
    :func:`leave_one_out`, :func:`node_messages`, :func:`add_composed`,
    :func:`add_shared`, :meth:`add`, :meth:`compose_affine`,
    :meth:`tilt`) are canonical by construction (the convolutions merge
    equal slopes while they are laid out) and take the internal
    :meth:`_trusted` path, which checks nothing.
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
    def _trusted(cls, breakpoints, slopes, anchor: tuple[int, int], values=None) -> "PwlConvex":
        """Construct from canonical data: strictly increasing breakpoints
        and slopes, which every algebra result in this module has.

        The input checks and the equal-slope merge of ``__init__`` do not
        run.  The results of the message kernel and of :func:`add_shared`
        carry their values along as they are laid out and pass them here
        (``None`` at an infinite end) with the canonical anchor, so
        nothing is computed; without ``values``, :meth:`_settle` derives
        both from ``anchor``.
        """
        f = object.__new__(cls)
        f.breakpoints = bks = tuple(breakpoints)
        f.slopes = sls = tuple(slopes)
        if values is None:
            f.anchor, f._values = cls._settle(bks, sls, *anchor)
        else:
            f.anchor, f._values = anchor, tuple(values)
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
    def linear(cls, slope: int, lo: int, hi: Extended) -> "PwlConvex":
        """``slope * (z - lo)`` on ``[lo, hi]`` (``hi`` may be inf)."""
        if hi == lo:
            return cls.point(lo, 0)
        return cls((lo, hi), (slope,), (lo, 0))

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

    # -- algebra -------------------------------------------------------------

    def add(self, other: "PwlConvex") -> "PwlConvex":
        """Pointwise sum, defined on the intersection of the two domains.

        Raises :class:`EmptyDomainError` when the domains are disjoint
        (the sum would be ``+inf`` everywhere).
        """
        return add_composed(self, other, 1, 0)

    __add__ = add

    def compose_affine(self, a: int, b: int) -> "PwlConvex":
        """The function ``z -> f(a*z + b)`` for ``a`` in ``{+1, -1}``.

        For ``a = -1`` the breakpoints reflect and the slope sequence
        negates and reverses, so convexity is preserved exactly.
        """
        _check_affine(a, b)
        if a == 1 and b == 0:
            return self
        bks, sls = self.breakpoints, self.slopes
        lo_inf = bks[0] == NEG_INF
        hi_inf = bks[-1] == POS_INF
        finite = bks[lo_inf : len(bks) - hi_inf]  # never shift an infinity by a bigint
        if a == 1:
            out = [x - b for x in finite]
        else:
            out = [b - x for x in reversed(finite)]
            sls = [-s for s in reversed(sls)]
            lo_inf, hi_inf = hi_inf, lo_inf  # the reflection swaps the ends
        if lo_inf:
            out.insert(0, NEG_INF)
        if hi_inf:
            out.append(POS_INF)
        z0, v0 = self.anchor
        return PwlConvex._trusted(out, sls, (z0 - b if a == 1 else b - z0, v0))

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


#: The finish of an output without one (:func:`leave_one_out`,
#: :func:`inf_convolve2`): the zero function on R as its cost, in the
#: convolution's own coordinate.
_UNFINISHED = (PwlConvex.constant(0), 1, 0)
_slope = operator.itemgetter(0)


def _check_affine(a: int, b: int) -> None:
    if a not in (1, -1):
        raise ValueError(f"affine scale must be +1 or -1, got {a!r}")
    if not _is_int(b):
        raise ValueError(f"affine shift must be an integer, got {b!r}")


def add_composed(f: PwlConvex, h: PwlConvex, a: int, b: int) -> PwlConvex:
    """The sum ``z -> f(z) + h(a*z + b)`` for ``a`` in ``{+1, -1}``.

    Equal to ``f.add(h.compose_affine(a, b))``, without building the
    composed function: ``h`` is split as a one-operand convolution and
    laid out across ``f``'s domain by the same pass that finishes every
    message of :func:`node_messages`.  A sum of convex functions is
    convex, so the result takes the trusted path.  Raises
    :class:`EmptyDomainError` when the domains are disjoint (the sum would
    be ``+inf`` everywhere).
    """
    _check_affine(a, b)
    return _add_composed(f, h, a, b)


def _add_composed(f: PwlConvex, h: PwlConvex, a: int, b: int) -> PwlConvex:
    """:func:`add_composed` for a map already checked."""
    left: list = []
    right: list = []
    # x -> h(a*x) split at a tilt in its slope range; f(z) + h(a*z + b) is
    # f(z) plus that function at z + a*b
    p, v = _split(h, a, a * _clamp0(*h._slope_bounds()), 0, left, right)
    return _finish(p - a * b, v, left, right, -1, f, 1)


def add_shared(f: PwlConvex, g: PwlConvex, h: PwlConvex) -> PwlConvex:
    """``f + g - h`` on the intersection of the domains of ``f`` and ``g``,
    where ``f`` and ``g`` share the summand ``h``: ``f - h`` and ``g - h``
    are convex, as for the two messages of an arc, which share its cost.

    The result is ``h + (f - h) + (g - h)``, so at every breakpoint of
    ``f`` or ``g`` its slope rises at least as much as theirs: the
    breakpoints and slopes of one merge are canonical as they stand, and
    the values follow from the sum's value at one point.  Raises
    :class:`EmptyDomainError` when the domains of ``f`` and ``g`` are
    disjoint or ``h`` is not finite on their intersection, and
    :class:`NonConvexError` when a slope fails to rise (``h`` is not a
    summand of both).
    """
    fb, fs, gb, gs, hb, hs = f.breakpoints, f.slopes, g.breakpoints, g.slopes, h.breakpoints, h.slopes
    lo = fb[0] if fb[0] > gb[0] else gb[0]
    hi = fb[-1] if fb[-1] < gb[-1] else gb[-1]
    if lo > hi:
        raise EmptyDomainError("domains do not intersect")
    if lo < hb[0] or hi > hb[-1]:
        raise EmptyDomainError("subtrahend is not finite on the sum's domain")
    bks: list[Extended] = [lo]
    sls: list[int] = []
    if lo < hi:
        i, j, k = bisect_right(fb, lo), bisect_right(gb, lo), bisect_right(hb, lo)
        while True:
            s = fs[i - 1] + gs[j - 1] - hs[k - 1]
            if sls and s <= sls[-1]:
                raise NonConvexError("the summand is not shared: slopes do not rise")
            sls.append(s)
            x = min(fb[i], gb[j], hb[k])
            if x >= hi:
                break
            bks.append(x)
            if fb[i] == x:
                i += 1
            if gb[j] == x:
                j += 1
            if hb[k] == x:
                k += 1
        bks.append(hi)
    # values from the first finite breakpoint on (see PwlConvex._settle)
    base = 1 if lo == NEG_INF else 0
    n = len(bks)
    if base == n - 1 and hi == POS_INF:  # one line on all of R
        return PwlConvex._trusted(bks, sls, (0, f.evaluate(0) + g.evaluate(0) - h.evaluate(0)), (None, None))
    x = bks[base]
    v = f.evaluate(x) + g.evaluate(x) - h.evaluate(x)
    vals: list = [None] * n
    vals[base] = v
    for q in range(base + 1, n - (hi == POS_INF)):
        v += sls[q - 1] * (bks[q] - bks[q - 1])
        vals[q] = v
    return PwlConvex._trusted(bks, sls, (x, vals[base]), vals)


def argmin_shared(f: PwlConvex, g: PwlConvex, h: PwlConvex) -> tuple[Extended, Extended, Extended]:
    """The smallest minimizer ``z`` of ``b = add_shared(f, g, h)`` and the
    slopes of ``b`` left and right of it, without building ``b``.

    Returns ``(b.argmin(), left, right)``.  Breakpoints are integers, so
    for a finite ``z`` the two slopes are ``b(z - 1) - b(z)`` negated and
    ``b(z + 1) - b(z)``; a side past the domain's end reads ``-inf`` on
    the left and ``+inf`` on the right.  ``right`` is 0 exactly when
    ``b`` is flat right of ``z`` (a tie).  The merge of
    :func:`add_shared` runs only as far as ``z``, and no value is
    computed.  Raises what :func:`add_shared` followed by
    :meth:`PwlConvex.argmin` raises: :class:`EmptyDomainError`,
    :class:`UnboundedError`, and :class:`NonConvexError` for a slope that
    fails to rise on the way to ``z`` (past ``z`` the slopes are not
    read).
    """
    fb, fs, gb, gs, hb, hs = f.breakpoints, f.slopes, g.breakpoints, g.slopes, h.breakpoints, h.slopes
    lo = fb[0] if fb[0] > gb[0] else gb[0]
    hi = fb[-1] if fb[-1] < gb[-1] else gb[-1]
    if lo > hi:
        raise EmptyDomainError("domains do not intersect")
    if lo < hb[0] or hi > hb[-1]:
        raise EmptyDomainError("subtrahend is not finite on the sum's domain")
    if lo == hi:
        return lo, NEG_INF, POS_INF
    i, j, k = bisect_right(fb, lo), bisect_right(gb, lo), bisect_right(hb, lo)
    x, left = lo, NEG_INF
    while True:
        s = fs[i - 1] + gs[j - 1] - hs[k - 1]
        if s <= left:
            raise NonConvexError("the summand is not shared: slopes do not rise")
        if s >= 0 and x != NEG_INF:
            return x, left, s
        if s > 0:
            raise UnboundedError("function decreases toward an infinite domain end")
        # the piece from x falls, or is flat from -inf (its finite right
        # end is the representative minimizer)
        y = min(fb[i], gb[j], hb[k])
        if y >= hi:
            if s < 0 and hi == POS_INF:
                raise UnboundedError("function decreases toward an infinite domain end")
            return hi, s, POS_INF
        x, left = y, s
        if fb[i] == y:
            i += 1
        if gb[j] == y:
            j += 1
        if hb[k] == y:
            k += 1


def _clamp0(s_lo: Extended, s_hi: Extended) -> int:
    """The tilt a convolution is stitched at: the point of the (non-empty)
    slope range ``[s_lo, s_hi]`` nearest 0."""
    if s_lo > 0:
        return s_lo
    if s_hi < 0:
        return s_hi
    return 0


def _split(f: PwlConvex, sign: int, s: int, j: int, left: list, right: list):
    """Split ``x -> f(sign * x)`` at the tilt ``s``, which lies in its slope
    range, straight from ``f``'s stored breakpoints, slopes and values.

    Returns a finite minimizer ``p`` of ``f(sign * x) - s * x`` and the
    value there, and appends the pieces left of ``p`` (slope-descending)
    to ``left`` and those right of it (ascending) to ``right`` as
    ``(slope, length, j)``; an end piece that reaches an infinite domain
    end has length ``+inf``.
    """
    bks, sls = f.breakpoints, f.slopes
    k = len(sls)
    first = bks[0] == NEG_INF  # pieces first .. last - 1 have finite length
    last = k - (bks[-1] == POS_INF)
    i = bisect_right(sls, s if sign == 1 else -s)  # pieces below i go left
    if i == k and last < k:  # flat on the last, infinite piece
        if k == 1 and first:  # one line on all of R: split at the anchor
            piece = (sign * sls[0], POS_INF, j)
            left.append(piece)
            right.append(piece)
            p, v = f.anchor
            return sign * p, v
        i = k - 1
    # f's pieces below i, slope-descending, and from i on, ascending; a
    # reflection negates the slopes, so the two sides swap
    down, up = (left, right) if sign == 1 else (right, left)
    for x in range(i - 1, first - 1, -1):
        down.append((sign * sls[x], bks[x + 1] - bks[x], j))
    if first and i:  # never subtract a bigint from an infinity
        down.append((sign * sls[0], POS_INF, j))
    for x in range(i, last):
        up.append((sign * sls[x], bks[x + 1] - bks[x], j))
    if last < k:
        up.append((sign * sls[-1], POS_INF, j))
    return sign * bks[i], f._values[i]


def _finish(z: int, v: int, left, right, skip: int, phi: PwlConvex, a: int) -> PwlConvex:
    """``phi + L``, where ``L`` is the convolution read in ``phi``'s own
    coordinate, with its tilted minimizer at ``z`` and value ``v`` there.
    The convolution's ``(slope, length, operand)`` pieces left of its split
    point are ``left`` in slope-descending order and those right of it
    ``right`` in ascending order; the pieces of operand ``skip`` are left
    out.  With ``a = 1`` they are read as they stand.  With ``a = -1`` they
    are read reflected: ``right`` lies left of ``z`` and ``left`` right of
    it, and each slope is negated as it is read, so no reflected copy is
    built.

    One pass from the pieces to the result.  When ``z`` lies outside
    ``phi``'s domain, the pieces toward the domain are walked to its end,
    carrying the value.  From that point the pieces are laid out leftward
    and then rightward, each cut at ``phi``'s breakpoints and given
    ``phi``'s slope there, until the cursor reaches ``phi``'s domain end
    or the pieces run out.  Equal slopes merge (from two operands, or on
    both sides of ``z``; ``phi``'s breakpoints always raise the slope), so
    the result is canonical, and the value at every breakpoint is carried
    along.  Raises :class:`EmptyDomainError` when ``L`` is ``+inf`` on all
    of ``phi``'s domain.
    """
    pb, ps = phi.breakpoints, phi.slopes
    lo, hi = pb[0], pb[-1]
    if a == -1:
        left, right = right, left
    if z < lo:  # walk right to the domain's lower end; the pass goes on
        # from there over the same iterator, the cut piece's rest first
        rest = iter(right)
        for r, length, o in rest:
            if o == skip:
                continue
            s = -r if a == -1 else r
            end = POS_INF if length == POS_INF else z + length
            if end >= lo:
                v += s * (lo - z)
                right = rest if end == lo else chain(((r, POS_INF if end == POS_INF else end - lo, o),), rest)
                break
            v += s * length
            z = end
        else:
            raise EmptyDomainError("domains do not intersect")
        z = lo
    elif z > hi:  # walk left to the domain's upper end
        rest = iter(left)
        for r, length, o in rest:
            if o == skip:
                continue
            s = -r if a == -1 else r
            end = NEG_INF if length == POS_INF else z - length
            if end <= hi:
                v -= s * (z - hi)
                left = rest if end == hi else chain(((r, POS_INF if end == NEG_INF else hi - end, o),), rest)
                break
            v -= s * length
            z = end
        else:
            raise EmptyDomainError("domains do not intersect")
        z = hi
    j = bisect_right(pb, z)  # pb[j - 1] <= z < pb[j], or z == hi
    x = pb[j - 1]
    if x == z:
        v += phi._values[j - 1]
    elif x != NEG_INF:
        v += phi._values[j - 1] + ps[j - 1] * (z - x)
    elif pb[j] != POS_INF:
        v += phi._values[j] - ps[0] * (pb[j] - z)
    else:  # phi is one line on all of R
        v += phi.anchor[1] + ps[0] * (z - phi.anchor[0])
    bks: list[Extended] = [z]
    sls: list[int] = []
    vals: list = [v]
    if z > lo:
        x, val = z, v
        k = j - 2 if pb[j - 1] == z else j - 1  # pb[k] < z <= pb[k + 1]
        for s, length, o in left:
            if o == skip:
                continue
            if a == -1:
                s = -s
            end = NEG_INF if length == POS_INF else x - length
            while True:
                px = pb[k]
                e = end if end > px else px
                sl = s + ps[k]
                val = None if e == NEG_INF else val - sl * (x - e)
                if sls and sls[-1] == sl:
                    bks[-1] = e
                    vals[-1] = val
                else:
                    bks.append(e)
                    sls.append(sl)
                    vals.append(val)
                x = e
                if e == px:
                    if e == lo:
                        break
                    k -= 1
                if e == end:
                    break
            if x == lo:
                break
        bks.reverse()
        sls.reverse()
        vals.reverse()
    if z < hi:
        x, val = z, v
        k = j  # pb[k - 1] <= z < pb[k]
        for s, length, o in right:
            if o == skip:
                continue
            if a == -1:
                s = -s
            end = POS_INF if length == POS_INF else x + length
            while True:
                px = pb[k]
                e = end if end < px else px
                sl = s + ps[k - 1]
                val = None if e == POS_INF else val + sl * (e - x)
                if sls and sls[-1] == sl:
                    bks[-1] = e
                    vals[-1] = val
                else:
                    bks.append(e)
                    sls.append(sl)
                    vals.append(val)
                x = e
                if e == px:
                    if e == hi:
                        break
                    k += 1
                if e == end:
                    break
            if x == hi:
                break
    if bks[0] != NEG_INF:
        anchor = (bks[0], vals[0])
    elif len(bks) > 2 or bks[1] != POS_INF:
        anchor = (bks[1], vals[1])
    else:  # one line on all of R
        anchor = (0, v - sls[0] * z)
    return PwlConvex._trusted(bks, sls, anchor, vals)


def _convolve(fs, signs, skips, finishes) -> list[PwlConvex]:
    """For each ``i`` in ``skips``, the convolution ``L_i`` of every
    ``x -> fs[j](signs[j] * x)`` with ``j != i`` (``i = -1`` leaves none
    out); with ``finishes``, output ``i`` is ``phi(z) + L_i(a*z + b)`` for
    ``(phi, a, b) = finishes[i]``.

    Every output is stitched at one tilt: the point nearest 0 of the slope
    range all operands share (read off their stored end slopes), which
    lies in every output's own range (the results are canonical, so the
    tilt does not change them).  Each operand is split at it once and the
    tagged pieces are sorted once; output ``i`` is split at the sum of the
    split points and values minus its own operand's, and :func:`_finish`
    lays it out in its own coordinate ``z``.  There the split point is
    ``t - b`` (``a = 1``) or ``b - t``, and with ``a = -1`` :func:`_finish`
    reads the one sorted pair of piece lists reflected, so every output is
    laid out from the same two lists.

    Raises :class:`UnboundedError` when the operands' slope ranges are
    disjoint.  With three or more operands some ``L_i`` is then ``-inf``
    everywhere, as it is for ``skips = (-1,)``.
    """
    # the shared slope range: an end that reaches an infinite domain end
    # bounds it by its slope, negated (and on the other side) when reflected
    s_lo, s_hi = NEG_INF, POS_INF
    for f, sign in zip(fs, signs):
        sls = f.slopes
        if not sls:
            continue
        bks = f.breakpoints
        if bks[0] == NEG_INF:
            x = sls[0]
            if sign == 1:
                if x > s_lo:
                    s_lo = x
            elif -x < s_hi:
                s_hi = -x
        if bks[-1] == POS_INF:
            x = sls[-1]
            if sign == 1:
                if x < s_hi:
                    s_hi = x
            elif -x > s_lo:
                s_lo = -x
    if s_lo > s_hi:
        raise UnboundedError("infimal convolution is -inf everywhere")
    s = _clamp0(s_lo, s_hi)
    t0 = v0 = 0
    left: list = []
    right: list = []
    splits: list = []
    for j, (f, sign) in enumerate(zip(fs, signs)):
        p, v = _split(f, sign, s, j, left, right)
        t0 += p
        v0 += v
        splits.append((p, v))
    left.sort(key=_slope, reverse=True)
    right.sort(key=_slope)
    out = []
    for i in skips:
        t, v = (t0, v0) if i < 0 else (t0 - splits[i][0], v0 - splits[i][1])
        phi, a, b = _UNFINISHED if finishes is None else finishes[i]
        out.append(_finish(t - b if a == 1 else b - t, v, left, right, i, phi, a))
    return out


def inf_convolve2(f: PwlConvex, g: PwlConvex) -> PwlConvex:
    """Exact infimal convolution ``t -> min {f(x1) + g(x2) : x1 + x2 = t}``.

    The result's pieces are the pieces of ``f`` and ``g`` stitched together
    in slope order (so its piece count is at most ``p(f) + p(g)``), anchored
    at the sum of tilted minimizers of the operands.  Runs in time linear in
    the total piece count, up to one sort.

    Raises :class:`UnboundedError` when the minimum is ``-inf`` for every
    ``t``, i.e. when the operands decrease without bound in incompatible
    directions (their slope ranges are disjoint).
    """
    return _convolve((f, g), (1, 1), (-1,), None)[0]


def leave_one_out(fs: Sequence[PwlConvex]) -> list[PwlConvex]:
    """``out[i]`` is the infimal convolution of every ``fs[j]`` with ``j != i``.

    Equal to ``reduce(inf_convolve2, fs[:i] + fs[i + 1:])``, in one pass.
    Every output is stitched at the point nearest 0 of the slope range
    all operands share, which lies in each output's own range: every
    operand is split once, the tagged pieces are sorted once, and output
    ``i`` skips its own operand's pieces.  ``d`` operands with ``P``
    pieces in total cost ``d`` splits, one sort and ``d`` passes of
    ``O(P)`` each.

    Raises :class:`ValueError` for fewer than two operands, and
    :class:`UnboundedError` when some output is ``-inf`` everywhere (the
    slope ranges of its operands are disjoint); with three or more
    operands that is exactly when the ranges of all of them are.
    """
    d = len(fs)
    if d < 2:
        raise ValueError("leave-one-out needs at least two functions")
    if d == 2:
        return [fs[1], fs[0]]
    return _convolve(fs, (1,) * d, range(d), None)


def node_messages(incoming: Sequence[PwlConvex], signs: Sequence[int], finishes) -> list[PwlConvex]:
    """All of one node's outgoing messages in one pass.

    ``out[i]`` is ``phi(z) + L_i(a*z + b)`` for ``(phi, a, b) =
    finishes[i]`` (``a`` in ``{+1, -1}``), where ``L_i`` is the infimal
    convolution of every ``x -> incoming[j](signs[j] * x)`` with
    ``j != i``: exactly ``add_composed(phi, leave_one_out(reflected)[i],
    a, b)``, with ``reflected[j] = incoming[j].compose_affine(signs[j], 0)``.

    No reflected copy is built.  An operand with sign ``-1`` is split
    where it splits at the negated tilt.  Each operand is split once, from
    its stored data, and the tagged pieces are sorted once into one pair
    of lists, as in :func:`leave_one_out`.  Output ``i`` then takes one
    pass from that pair to the one result object it makes: laid out in
    ``z``, the arc's flow coordinate (with ``a = -1`` the pair is read
    swapped and each slope negated as it is read), only across ``phi``'s
    domain, merged with ``phi``'s slopes, with the value at every
    breakpoint carried along and handed to :meth:`PwlConvex._trusted`.
    Two operands need no convolution: the sign folds into
    :func:`add_composed`'s map, which runs the same pass.

    Raises :class:`ValueError` for fewer than two operands or a finish
    whose map is not ``a*z + b`` with ``a`` in ``{+1, -1}`` and an integer
    ``b``, :class:`UnboundedError` when some ``L_i`` is ``-inf``
    everywhere (checked before any output is built), and
    :class:`EmptyDomainError` when some ``L_i(a*z + b)`` is ``+inf`` on
    all of ``phi``'s domain.
    """
    for _, a, b in finishes:
        if a not in (1, -1) or type(b) is not int:
            _check_affine(a, b)
    return _node_messages(incoming, signs, finishes)


def _node_messages(incoming: Sequence[PwlConvex], signs: Sequence[int], finishes) -> list[PwlConvex]:
    """:func:`node_messages` for finishes whose maps are already checked."""
    d = len(incoming)
    if d < 2:
        raise ValueError("leave-one-out needs at least two functions")
    if d == 2:
        return [
            _add_composed(phi, incoming[1 - i], signs[1 - i] * a, signs[1 - i] * b)
            for i, (phi, a, b) in enumerate(finishes)
        ]
    return _convolve(incoming, signs, range(d), finishes)


def scaled_interpolation(fs: Sequence[PwlConvex], signs: Sequence[int]) -> PwlConvex:
    """Exact ``t -> min {sum f_i(x_i) : sum signs_i * x_i = t}``: one
    stitch of every operand's pieces, each reflected by its sign as it is
    read, at one tilt (as :func:`inf_convolve2`, with ``k`` operands)."""
    if len(fs) != len(signs) or not fs:
        raise ValueError("need one sign per function and at least one function")
    if len(fs) == 1 and signs[0] == 1:
        return fs[0]
    return _convolve(fs, signs, (-1,), None)[0]
