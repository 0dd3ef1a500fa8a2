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

One kernel serves the message-passing engine.  :func:`node_messages`
computes all of a node's outgoing messages: for every operand, the
convolution of all the others (each reflected by its sign), re-parametrized
by an affine map and added to a cost.  Per distinct tilt (almost always
one) it splits each operand once, a reflected one where the unreflected
function splits at the negated tilt, and sorts all tagged pieces once;
each output is stitched from that list, skipping its own operand's
pieces, only across the window that its cost's domain maps to, and
merged with the cost into one result object.  A node of degree ``d``
costs ``d`` splits and one sort per tilt, ``d`` window-bounded stitches
and one result object per message.  :func:`leave_one_out` and
:func:`inf_convolve2` run the same split, sort and stitch with an
unbounded window, and :func:`add_composed` the same final merge.  All
give exactly what the pairwise operations give.
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
    :func:`leave_one_out`, :func:`node_messages`, :func:`add_composed`,
    :meth:`add`, :meth:`compose_affine`, :meth:`tilt`) are canonical by
    construction (the convolutions merge equal slopes while they stitch)
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
        return add_composed(self, other, 1, 0)

    __add__ = add

    def compose_affine(self, a: int, b: int) -> "PwlConvex":
        """The function ``z -> f(a*z + b)`` for ``a`` in ``{+1, -1}``.

        For ``a = -1`` the breakpoints reflect and the slope sequence
        negates and reverses, so convexity is preserved exactly.
        """
        bks, sls = _affine_image(self.breakpoints, self.slopes, a, b)
        if a == 1 and b == 0:
            return self
        z0, v0 = self.anchor
        return PwlConvex._trusted(bks, sls, (z0 - b if a == 1 else b - z0, v0))

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


def _affine_image(bks, sls, a: int, b: int):
    """Breakpoints and slopes of ``z -> f(a*z + b)`` from those of ``f``,
    for ``a`` in ``{+1, -1}``.

    For ``a = -1`` the breakpoints reflect and the slope sequence negates
    and reverses; the infinite ends never meet the bigint shift.
    """
    if a not in (1, -1):
        raise ValueError(f"affine scale must be +1 or -1, got {a!r}")
    if not _is_int(b):
        raise ValueError(f"affine shift must be an integer, got {b!r}")
    if a == 1 and b == 0:
        return bks, sls
    lo_inf = bks[0] == NEG_INF
    hi_inf = bks[-1] == POS_INF
    finite = bks[lo_inf : len(bks) - hi_inf]  # only the ends may be infinite
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
    return out, sls


def _merge(op, fb, fs, gb, gs, lo: Extended, hi: Extended):
    """Breakpoints and slopes of ``op(f, g)`` on ``[lo, hi]``, which lies
    in both domains, by one two-pointer pass over the breakpoints of ``f``
    (``fb``, ``fs``) and ``g`` (``gb``, ``gs``).

    ``op`` combines the slopes piece by piece.  Also returns the point to
    anchor at: ``lo`` or the first finite breakpoint, 0 on all of R.
    """
    if lo == hi:
        return (lo,), (), lo
    i = bisect_right(fb, lo)  # fb[i - 1] <= lo < fb[i]
    j = bisect_right(gb, lo)
    bks: list[Extended] = [lo]
    sls: list[int] = []
    while True:
        sls.append(op(fs[i - 1], gs[j - 1]))
        x = fb[i] if fb[i] < gb[j] else gb[j]
        if x >= hi:
            break
        bks.append(x)
        if fb[i] == x:
            i += 1
        if gb[j] == x:
            j += 1
    bks.append(hi)
    z = lo if lo != NEG_INF else (bks[1] if bks[1] != POS_INF else 0)
    return bks, sls, z


def _add_image(f: PwlConvex, hb, hs, a: int, b: int):
    """Breakpoints and slopes of ``z -> f(z) + h(a*z + b)``, where ``h``
    has breakpoints ``hb`` and slopes ``hs``, on the intersection of the
    two domains, plus the point to anchor at (see :func:`_merge`).

    Raises :class:`EmptyDomainError` when the domains are disjoint.
    """
    gb, gs = _affine_image(hb, hs, a, b)
    fb = f.breakpoints
    lo = max(fb[0], gb[0])
    hi = min(fb[-1], gb[-1])
    if lo > hi:
        raise EmptyDomainError("domains do not intersect")
    return _merge(operator.add, fb, f.slopes, gb, gs, lo, hi)


def add_composed(f: PwlConvex, h: PwlConvex, a: int, b: int) -> PwlConvex:
    """The sum ``z -> f(z) + h(a*z + b)`` for ``a`` in ``{+1, -1}``.

    Equal to ``f.add(h.compose_affine(a, b))``, without building the
    composed function: the affine image of ``h``'s breakpoints and slopes
    is merged with ``f``'s in one pass over the intersection of the two
    domains.  A sum of convex functions is convex, so the result takes the
    trusted path.  Raises :class:`EmptyDomainError` when the domains are
    disjoint (the sum would be ``+inf`` everywhere).
    """
    bks, sls, z = _add_image(f, h.breakpoints, h.slopes, a, b)
    return PwlConvex._trusted(
        bks, sls, (z, f.evaluate(z) + h.evaluate(z + b if a == 1 else b - z))
    )


def _clamp0(s_lo: Extended, s_hi: Extended) -> int:
    """The tilt a convolution is stitched at: the point of the (non-empty)
    slope range ``[s_lo, s_hi]`` nearest 0."""
    if s_lo > 0:
        return s_lo
    if s_hi < 0:
        return s_hi
    return 0


def _stitch(t0: int, v0: int, left, right, skip: int, lo: Extended = NEG_INF, hi: Extended = POS_INF):
    """The convolution whose tilted minimizer is ``t0`` with value ``v0``,
    laid out across the window ``[lo, hi]``.

    ``left`` holds the ``(slope, length, operand)`` pieces left of the
    operands' split points in slope-descending order, ``right`` those to
    the right in ascending order.  They are laid out outward from ``t0``,
    leaving out the pieces of operand ``skip``, until the cursor passes
    the window end on that side (or reaches an infinite domain end); a
    side that lies wholly outside the window is not laid out.  Pieces of
    equal slope merge (from two operands, or on both sides of ``t0``) so
    the result is canonical inside the window.

    Returns the breakpoints and slopes, which cover the window's part of
    the domain, and the point of the window nearest ``t0`` with its value
    (meaningful only when the domain reaches the window).
    """
    bks: list[Extended] = [t0]
    sls: list[int] = []
    v = v0
    if t0 > lo:
        cur: Extended = t0
        for s, length, j in left:
            if j == skip:
                continue
            nxt = NEG_INF if length == POS_INF else cur - length
            if cur > hi:  # the window lies further left: carry the value
                v -= s * (cur - (nxt if nxt > hi else hi))
            cur = nxt
            if sls and sls[-1] == s:
                bks[-1] = cur
            else:
                bks.append(cur)
                sls.append(s)
            if cur <= lo:
                break
        bks.reverse()
        sls.reverse()
    if t0 < hi:
        cur = t0
        for s, length, j in right:
            if j == skip:
                continue
            nxt = POS_INF if length == POS_INF else cur + length
            if cur < lo:  # the window lies further right: carry the value
                v += s * ((nxt if nxt < lo else lo) - cur)
            cur = nxt
            if sls and sls[-1] == s:
                bks[-1] = cur
            else:
                bks.append(cur)
                sls.append(s)
            if cur >= hi:
                break
    return bks, sls, (lo if t0 < lo else hi if t0 > hi else t0, v)


def _signed_bounds(f: PwlConvex, sign: int) -> tuple[Extended, Extended]:
    """The slope range of ``x -> f(sign * x)``."""
    lo, hi = f._slope_bounds()
    return (lo, hi) if sign == 1 else (-hi, -lo)


def _window(f: PwlConvex, a: int, b: int) -> tuple[Extended, Extended]:
    """The image of ``f``'s domain under ``z -> a*z + b``."""
    lo, hi = f.domain
    if a == -1:
        lo, hi = -hi, -lo
    return (lo if lo == NEG_INF else lo + b), (hi if hi == POS_INF else hi + b)


def _convolve_at(fs, signs, bounds, s: int, skips, finishes) -> list[PwlConvex]:
    """For each ``i`` in ``skips``, the convolution of every
    ``x -> fs[j](signs[j] * x)`` with ``j != i`` (``i = -1`` leaves none
    out), stitched at the tilt ``s``; with ``finishes``, output ``i`` is
    ``phi(z) + conv(a*z + b)`` for ``(phi, a, b) = finishes[i]``.

    ``s`` must lie in the slope range of every operand that is not left
    out.  Each operand whose range (``bounds``) holds ``s`` is split at it
    once (a reflected one where ``fs[j]`` splits at ``-s``, its sides
    swapped and negated), and the tagged pieces are sorted once for all
    outputs; output ``i`` is anchored at the sum of the split points and
    values minus its own operand's.  A finished output is stitched only
    across its window, the image of ``phi``'s domain under ``a*z + b``,
    and merged with ``phi`` into one result.
    """
    t0 = v0 = 0
    left: list = []
    right: list = []
    splits: list = []
    for j, (f, sign, (lo, hi)) in enumerate(zip(fs, signs, bounds)):
        if not lo <= s <= hi:
            splits.append(None)
            continue
        if sign == 1:
            p, v, f_left, f_right = f._split_at_tilt(s)
            left += [(sl, length, j) for sl, length in f_left]
            right += [(sl, length, j) for sl, length in f_right]
        else:
            p, v, f_left, f_right = f._split_at_tilt(-s)
            p = -p
            left += [(-sl, length, j) for sl, length in f_right]
            right += [(-sl, length, j) for sl, length in f_left]
        t0 += p
        v0 += v
        splits.append((p, v))
    left.sort(key=operator.itemgetter(0), reverse=True)
    right.sort(key=operator.itemgetter(0))
    out = []
    for i in skips:
        own = splits[i] if i >= 0 else None
        t, v = (t0, v0) if own is None else (t0 - own[0], v0 - own[1])
        if finishes is None:
            bks, sls, anchor = _stitch(t, v, left, right, i)
            out.append(PwlConvex._trusted(bks, sls, anchor))
            continue
        phi, a, b = finishes[i]
        bks, sls, (t, v) = _stitch(t, v, left, right, i, *_window(phi, a, b))
        bks, sls, _ = _add_image(phi, bks, sls, a, b)
        z = t - b if a == 1 else b - t
        out.append(PwlConvex._trusted(bks, sls, (z, phi.evaluate(z) + v)))
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
    bounds = (f._slope_bounds(), g._slope_bounds())
    s_lo = max(bounds[0][0], bounds[1][0])
    s_hi = min(bounds[0][1], bounds[1][1])
    if s_lo > s_hi:
        raise UnboundedError("infimal convolution is -inf everywhere")
    return _convolve_at((f, g), (1, 1), bounds, _clamp0(s_lo, s_hi), (-1,), None)[0]


def _kernel(fs, signs, finishes) -> list[PwlConvex]:
    """The outputs of :func:`node_messages` (or, without ``finishes``, of
    :func:`leave_one_out` on the reflected operands) for three or more
    operands, grouped by the tilt each is stitched at."""
    d = len(fs)
    bounds = [_signed_bounds(f, sign) for f, sign in zip(fs, signs)]
    lows = [lo for lo, _ in bounds]
    highs = [hi for _, hi in bounds]
    top = max(range(d), key=lows.__getitem__)
    bottom = min(range(d), key=highs.__getitem__)
    next_low = max(lo for j, lo in enumerate(lows) if j != top)
    next_high = min(hi for j, hi in enumerate(highs) if j != bottom)
    groups: dict[int, list[int]] = {}
    for i in range(d):
        s_lo = next_low if i == top else lows[top]
        s_hi = next_high if i == bottom else highs[bottom]
        if s_lo > s_hi:
            raise UnboundedError("infimal convolution is -inf everywhere")
        groups.setdefault(_clamp0(s_lo, s_hi), []).append(i)
    out: list = [None] * d
    for s, members in groups.items():
        for i, g in zip(members, _convolve_at(fs, signs, bounds, s, members, finishes)):
            out[i] = g
    return out


def leave_one_out(fs: Sequence[PwlConvex]) -> list[PwlConvex]:
    """``out[i]`` is the infimal convolution of every ``fs[j]`` with ``j != i``.

    Equal to ``reduce(inf_convolve2, fs[:i] + fs[i + 1:])``, in one pass.
    Output ``i``'s slope range is the intersection of the others' ranges,
    read off the two largest lower and the two smallest upper slope
    bounds, and it is stitched at the point of that range nearest 0, as in
    :func:`inf_convolve2`.  The outputs need at most four distinct tilts,
    and almost always one: every operand is split once per tilt, the
    tagged pieces are sorted once per tilt, and output ``i`` skips its own
    operand's pieces.  ``d`` operands with ``P`` pieces in total cost
    ``d`` splits, one sort and ``d`` stitches of ``O(P)`` each.

    Raises :class:`ValueError` for fewer than two operands, and
    :class:`UnboundedError` when some output is ``-inf`` everywhere (the
    slope ranges of its operands are disjoint).
    """
    d = len(fs)
    if d < 2:
        raise ValueError("leave-one-out needs at least two functions")
    if d == 2:
        return [fs[1], fs[0]]
    return _kernel(fs, (1,) * d, None)


def node_messages(incoming: Sequence[PwlConvex], signs: Sequence[int], finishes) -> list[PwlConvex]:
    """All of one node's outgoing messages in one pass.

    ``out[i]`` is ``phi(z) + L_i(a*z + b)`` for ``(phi, a, b) =
    finishes[i]`` (``a`` in ``{+1, -1}``), where ``L_i`` is the infimal
    convolution of every ``x -> incoming[j](signs[j] * x)`` with
    ``j != i``: exactly ``add_composed(phi, leave_one_out(reflected)[i],
    a, b)``, with ``reflected[j] = incoming[j].compose_affine(signs[j], 0)``.

    No reflected copy is built: an operand with sign ``-1`` is split
    where it splits at the negated tilt.  Each operand is split once per
    tilt and the tagged pieces are sorted once per tilt, as in
    :func:`leave_one_out`; output ``i`` is stitched only across its
    window, the image of ``phi``'s domain under ``a*z + b``, and merged
    with ``phi`` into the one result object it makes.  Two operands need
    no convolution: the sign folds into :func:`add_composed`'s map.

    Raises :class:`ValueError` for fewer than two operands,
    :class:`UnboundedError` when some ``L_i`` is ``-inf`` everywhere (all
    outputs are checked before any is built), and
    :class:`EmptyDomainError` when some ``L_i`` is ``+inf`` on all of
    ``phi``'s window.
    """
    d = len(incoming)
    if d < 2:
        raise ValueError("leave-one-out needs at least two functions")
    if d == 2:
        return [
            add_composed(phi, incoming[1 - i], signs[1 - i] * a, signs[1 - i] * b)
            for i, (phi, a, b) in enumerate(finishes)
        ]
    return _kernel(incoming, signs, finishes)


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
    bks, sls, z = _merge(operator.sub, f.breakpoints, f.slopes, g.breakpoints, g.slopes, *f.domain)
    return PwlConvex(bks, sls, (z, f.evaluate(z) - g.evaluate(z)))
