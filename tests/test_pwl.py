from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbp.errors import (
    AnchorOutOfDomainError,
    EmptyDomainError,
    MalformedDomainError,
    NonConvexError,
    UnboundedError,
)
from flowbp import pwl
from flowbp.pwl import (
    NEG_INF,
    POS_INF,
    PwlConvex,
    add_composed,
    add_shared,
    argmin_shared,
    inf_convolve2,
    leave_one_out,
    node_messages,
    scaled_interpolation,
)
from flowbp.selftest import _literal_node_messages
from helpers import brute_min_pair, brute_min_signed, leave_one_out_tilts, pointwise_diff, random_pwl
import random


def test_construct_zero_function_on_reals():
    f = PwlConvex((NEG_INF, POS_INF), (0,), (0, 0))
    assert f.piece_count == 1
    assert f.evaluate(-1000) == 0
    assert f.evaluate(12345) == 0
    assert f == PwlConvex.constant(0)


def test_construct_reconstructs_values_from_anchor():
    f = PwlConvex((0, 1, 2), (-1, 2), (1, 0))
    assert f.evaluate(0) == 1
    assert f.evaluate(1) == 0
    assert f.evaluate(2) == 2


def test_construct_rejects_decreasing_slopes():
    with pytest.raises(NonConvexError):
        PwlConvex((0, 1), (2, 1), (0, 0))


def test_construct_rejects_bad_breakpoints():
    with pytest.raises(MalformedDomainError):
        PwlConvex((1, 0), (1,), (0, 0))
    with pytest.raises(MalformedDomainError):
        PwlConvex((0, 0), (1,), (0, 0))
    with pytest.raises(MalformedDomainError):
        PwlConvex((0, NEG_INF, 2), (1, 2), (0, 0))


def test_construct_rejects_anchor_outside_domain():
    with pytest.raises(AnchorOutOfDomainError):
        PwlConvex((0, 1), (1,), (5, 0))
    with pytest.raises(AnchorOutOfDomainError):
        PwlConvex((0, 1), (1,), (0, 0.5))


def test_construct_merges_equal_slopes():
    f = PwlConvex((0, 1, 2), (3, 3), (0, 0))
    assert f.piece_count == 1
    assert f.breakpoints == (0, 2)


def test_construct_rejects_noninteger_data():
    with pytest.raises(MalformedDomainError):
        PwlConvex((0, 1.5), (1,), (0, 0))
    with pytest.raises(NonConvexError):
        PwlConvex((0, 1), (1.5,), (0, 0))


def test_evaluate_identity_and_out_of_domain():
    f = PwlConvex.linear(1, 0, 2)
    assert f.evaluate(2) == 2
    assert f.evaluate(3) == POS_INF
    assert f.evaluate(-1) == POS_INF
    assert f.evaluate(Fraction(1, 2)) == Fraction(1, 2)


def test_evaluate_derived_reconstruction():
    f = PwlConvex((0, 1, 2), (-1, 2), (1, 0))
    assert f.evaluate(2) == 2
    assert f.evaluate(Fraction(3, 2)) == 1


def test_argmin_flat_region_takes_smallest():
    f = PwlConvex.linear(0, 0, 1)
    assert f.argmin() == 0


def test_argmin_at_slope_sign_change():
    f = PwlConvex((0, 1, 2), (-1, 2), (1, 0))
    assert f.argmin() == 1


def test_argmin_unbounded():
    f = PwlConvex.linear(-1, 0, POS_INF)
    with pytest.raises(UnboundedError):
        f.argmin()
    g = PwlConvex((NEG_INF, 0), (2,), (0, 0))
    with pytest.raises(UnboundedError):
        g.argmin()


def test_add_cancellation_and_identity():
    f = PwlConvex.linear(1, 0, 2)
    g = PwlConvex.linear(-1, 0, 1)
    h = f.add(g)
    assert h == PwlConvex.linear(0, 0, 1)
    assert f.add(PwlConvex.constant(0)) == f


def test_add_derived_grid_check():
    f = PwlConvex((0, 1, 2), (-1, 2), (1, 0))
    g = PwlConvex.linear(1, 0, 2)
    h = f.add(g)
    assert h.breakpoints == (0, 1, 2)
    assert h.slopes == (0, 3)
    assert h.evaluate(0) == 1
    for z in range(0, 3):
        assert h.evaluate(z) == f.evaluate(z) + g.evaluate(z)


def test_add_empty_domain():
    f = PwlConvex.linear(1, 0, 1)
    g = PwlConvex.linear(1, 5, 6)
    with pytest.raises(EmptyDomainError):
        f.add(g)


def test_add_single_point_intersection():
    f = PwlConvex.linear(1, 0, 2)
    g = PwlConvex.linear(1, 2, 4)
    h = f.add(g)
    assert h == PwlConvex.point(2, 2)


def test_compose_affine_reflection():
    f = PwlConvex.linear(1, 0, 2)
    g = f.compose_affine(-1, 1)  # z -> f(1 - z) = 1 - z on [-1, 1]
    assert g.domain == (-1, 1)
    assert g.evaluate(-1) == 2
    assert g.evaluate(1) == 0
    assert f.compose_affine(1, 0) == f


def test_compose_affine_derived_reflection():
    f = PwlConvex((0, 1, 2), (-1, 2), (1, 0))
    g = f.compose_affine(-1, 0)
    assert g.breakpoints == (-2, -1, 0)
    assert g.slopes == (-2, 1)
    for z in range(-2, 1):
        assert g.evaluate(z) == f.evaluate(-z)


def test_compose_affine_involution():
    rng = random.Random(7)
    for _ in range(200):
        f = random_pwl(rng, allow_unbounded=True)
        assert f.compose_affine(-1, 0).compose_affine(-1, 0) == f


def test_inf_convolve2_greedy_fill():
    f = PwlConvex.linear(1, 0, 1)
    g = PwlConvex.linear(2, 0, 1)
    h = inf_convolve2(f, g)
    assert h.breakpoints == (0, 1, 2)
    assert h.slopes == (1, 2)
    assert h.evaluate(0) == 0


def test_inf_convolve2_derived_example():
    f = PwlConvex((0, 1, 2), (-1, 2), (1, 0))
    g = PwlConvex.linear(1, 0, 1)
    h = inf_convolve2(f, g)
    assert h.breakpoints == (0, 1, 2, 3)
    assert h.slopes == (-1, 1, 2)
    assert [h.evaluate(z) for z in range(4)] == [1, 0, 1, 3]
    assert h.piece_count == 3


def test_inf_convolve2_point_translation():
    f = PwlConvex.point(5, 7)
    g = PwlConvex.point(-2, 1)
    assert inf_convolve2(f, g) == PwlConvex.point(3, 8)


def test_inf_convolve2_unbounded():
    f = PwlConvex.linear(-1, 0, POS_INF)  # decreases forever rightward
    g = PwlConvex((NEG_INF, 0), (1,), (0, 0))  # decreases forever leftward
    with pytest.raises(UnboundedError):
        inf_convolve2(f, g)


def test_inf_convolve2_one_sided_unbounded_is_fine():
    f = PwlConvex.linear(-1, 0, POS_INF)
    g = PwlConvex.linear(1, 0, 1)
    h = inf_convolve2(f, g)
    assert h.domain == (0, POS_INF)
    # all mass goes to the decreasing arm
    assert h.evaluate(10) == -10


def test_scaled_interpolation_identity():
    f = PwlConvex((0, 1, 2), (-1, 2), (1, 0))
    assert scaled_interpolation([f], [1]) == f


def test_scaled_interpolation_absolute_value():
    f = PwlConvex.linear(1, 0, 1)
    h = scaled_interpolation([f, f], [1, -1])
    assert h.breakpoints == (-1, 0, 1)
    assert h.slopes == (-1, 1)
    assert h.evaluate(0) == 0


def test_scaled_interpolation_equal_slopes():
    f = PwlConvex.linear(2, 0, 1)
    h = scaled_interpolation([f, f, f], [1, 1, 1])
    assert h == PwlConvex.linear(2, 0, 3)


def test_piece_count_examples():
    assert PwlConvex.constant(0).piece_count == 1
    assert PwlConvex((0, 1, 2), (-1, 2), (1, 0)).piece_count == 2


def test_tilt_rejects_noninteger_slope():
    f = PwlConvex((0, 1, 2), (-1, 2), (1, 0))
    for slope in (Fraction(1, 2), 0.5, 0.0, True):
        with pytest.raises(NonConvexError):
            f.tilt(slope)
    assert f.tilt(3) == PwlConvex((0, 1, 2), (2, 5), (1, 3))


def test_pointwise_diff_rejects_nonconvex_difference():
    zero = PwlConvex.linear(0, 0, 2)
    vee = PwlConvex((0, 1, 2), (-1, 1), (1, 0))  # |x - 1|
    with pytest.raises(NonConvexError):
        pointwise_diff(zero, vee)


def test_pointwise_diff_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        f = random_pwl(rng)
        g = random_pwl(rng)
        try:
            h = f.add(g)
        except EmptyDomainError:
            continue
        d = pointwise_diff(h, g)
        assert d.domain == h.domain
        lo, hi = h.domain
        for i in range(2 * (hi - lo) + 1):
            z = Fraction(lo) + Fraction(i, 2)
            assert d.evaluate(z) == f.evaluate(z)


def test_json_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        f = random_pwl(rng, allow_unbounded=True)
        assert PwlConvex.from_json_dict(f.to_json_dict()) == f
    z = PwlConvex.constant(4)
    d = z.to_json_dict()
    assert d["breakpoints"] == ["-inf", "inf"]


def _assert_trusted_results(f, g, b, t):
    """Algebra results (built without validation) equal their validated
    reconstruction, derived values included."""
    results = [f.compose_affine(1, b), f.compose_affine(-1, b), f.tilt(t)]
    try:
        results.append(inf_convolve2(f, g))
    except UnboundedError:
        pass
    try:
        results.append(f.add(g))
    except EmptyDomainError:
        pass
    for r in results:
        v = PwlConvex(r.breakpoints, r.slopes, r.anchor)
        assert v == r and v._values == r._values, r


def test_trusted_results_beyond_float_range():
    big = 10**400  # float(big) overflows
    f = PwlConvex((NEG_INF, -big, big, POS_INF), (-big, 0, big), (0, 7))
    g = PwlConvex((-big, 0, POS_INF), (-3, big), (0, 0))
    _assert_trusted_results(f, g, big, big)
    _assert_trusted_results(g, f, -big, -big)
    # split straight from the stored data: lengths are bigints or +inf,
    # and a reflection swaps and negates the two sides
    for sign, split, left, right in (
        (1, (big, 7), [(0, 2 * big, 5), (-big, POS_INF, 5)], [(big, POS_INF, 5)]),
        (-1, (-big, 7), [(-big, POS_INF, 5)], [(0, 2 * big, 5), (big, POS_INF, 5)]),
    ):
        got_left, got_right = [], []
        assert pwl._split(f, sign, 0, 5, got_left, got_right) == split
        assert (got_left, got_right) == (left, right)
    for z in (-2 * big, -big, -5, 0, 3, big, 2 * big):
        assert f.compose_affine(-1, big).evaluate(z) == f.evaluate(big - z)
        assert f.compose_affine(1, -big).evaluate(z) == f.evaluate(z - big)
        assert f.tilt(big).evaluate(z) == f.evaluate(z) + big * z
        if z >= -big:  # inside g's domain (bigint + inf overflows)
            assert f.add(g).evaluate(z) == f.evaluate(z) + g.evaluate(z)


# ---------------------------------------------------------------------------
# Brute-force oracle equivalence


def test_inf_convolve2_matches_grid_oracle():
    rng = random.Random(2024)
    for _ in range(150):
        f = random_pwl(rng)
        g = random_pwl(rng)
        h = inf_convolve2(f, g)
        for i in range(-10 * 8, 10 * 8 + 1, 7):  # sparse sweep of the 1/8 grid
            t = Fraction(i, 8)
            assert h.evaluate(t) == brute_min_pair(f, g, t), (f, g, t)


def test_scaled_interpolation_matches_signed_oracle():
    rng = random.Random(99)
    for _ in range(60):
        fs = [random_pwl(rng) for _ in range(3)]
        signs = [rng.choice((1, -1)) for _ in range(3)]
        h = scaled_interpolation(fs, signs)
        for t in range(-15, 16, 3):
            assert h.evaluate(t) == brute_min_signed(fs, signs, t), (fs, signs, t)


def test_closure_properties_random():
    # f and g share slopes: on one side of the stitch point, and on both
    # sides of it (f is one sloped line on R, so it splits into two pieces)
    shared = [
        (PwlConvex((0, 2, 5, 6), (1, 3, 4), (0, 0)), PwlConvex((-1, 1, 4), (1, 3), (0, 5))),
        (PwlConvex((NEG_INF, POS_INF), (2,), (0, 0)), PwlConvex((0, 1, 4), (2, 5), (0, 0))),
    ]
    for f, g in shared:
        _assert_trusted_results(f, g, 3, -2)
    assert inf_convolve2(*shared[0]).slopes == (1, 3, 4)
    assert inf_convolve2(*shared[1]) == PwlConvex((NEG_INF, POS_INF), (2,), (0, 0))
    rng = random.Random(5)
    shifts = random.Random(6)  # kept apart, so rng draws the same operands
    for _ in range(300):
        f = random_pwl(rng)
        g = random_pwl(rng)
        h = inf_convolve2(f, g)
        _assert_trusted_results(f, g, shifts.randint(-9, 9), shifts.randint(-9, 9))
        # convexity: strictly increasing slopes is enforced by construction,
        # re-check explicitly
        assert all(a < b for a, b in zip(h.slopes, h.slopes[1:]))
        # piece budget
        assert h.piece_count <= f.piece_count + g.piece_count
        # integrality
        assert all(isinstance(s, int) for s in h.slopes)
        assert all(isinstance(b, int) for b in h.breakpoints)
        assert isinstance(h.anchor[1], int)
        try:
            s = f.add(g)
        except EmptyDomainError:
            continue
        assert s.piece_count <= f.piece_count + g.piece_count
        assert all(a < b for a, b in zip(s.slopes, s.slopes[1:]))


def test_unbounded_operands_against_oracle():
    # restrict to pairs whose convolution exists; grid oracle stays valid on
    # a window because optima lie on breakpoint-aligned points
    rng = random.Random(41)
    shifts = random.Random(42)  # kept apart, so rng draws the same operands
    checked = 0
    while checked < 60:
        f = random_pwl(rng, allow_unbounded=True)
        g = random_pwl(rng, allow_unbounded=True)
        _assert_trusted_results(f, g, shifts.randint(-9, 9), shifts.randint(-9, 9))
        try:
            h = inf_convolve2(f, g)
        except UnboundedError:
            flo, fhi = f._slope_bounds()
            glo, ghi = g._slope_bounds()
            assert max(flo, glo) > min(fhi, ghi)
            continue
        for t in range(-8, 9, 2):
            expect = brute_min_pair(f, g, t, lo=-40, hi=40, per_unit=1)
            assert h.evaluate(t) == expect, (f, g, t)
        checked += 1


# ---------------------------------------------------------------------------
# The per-node kernels against the pairwise operations

KERNEL = settings(derandomize=True, database=None, deadline=None, max_examples=700)

BIG = 2**1100  # far beyond float range


@st.composite
def pwl_functions(draw):
    """Point indicators, bounded, half-infinite and whole-R domains, with
    values (slopes and anchor heights) and breakpoints optionally scaled
    by ``BIG``."""
    k = draw(st.integers(0, 4))
    value_scale = draw(st.sampled_from((1, BIG)))
    x_scale = draw(st.sampled_from((1, 1, BIG)))
    height = draw(st.integers(-6, 6)) * value_scale
    if k == 0:
        return PwlConvex.point(draw(st.integers(-6, 6)) * x_scale, height)
    points = st.lists(st.integers(-6, 6), min_size=k + 1, max_size=k + 1, unique=True)
    bks = [x * x_scale for x in sorted(draw(points))]
    sls = [s * value_scale for s in sorted(draw(points))[:k]]
    ends = draw(st.sampled_from(("finite", "left", "right", "both")))
    if ends in ("left", "both"):
        bks[0] = NEG_INF
    if ends in ("right", "both"):
        bks[-1] = POS_INF
    anchor_x = next((b for b in bks if isinstance(b, int)), 0)
    return PwlConvex(bks, sls, (anchor_x, height))


def _same(got, want):
    assert got == want and repr(got) == repr(want) and got._values == want._values, (got, want)


def _reference_leave_one_out(fs):
    return [reduce(inf_convolve2, fs[:i] + fs[i + 1:]) for i in range(len(fs))]


def _check_leave_one_out(fs):
    try:
        want = _reference_leave_one_out(fs)
    except UnboundedError:
        with pytest.raises(UnboundedError):
            leave_one_out(fs)
        return
    got = leave_one_out(fs)
    assert len(got) == len(fs)
    for g, w in zip(got, want):
        _same(g, w)


@KERNEL
@given(st.lists(pwl_functions(), min_size=2, max_size=7))
def test_leave_one_out_equals_pairwise_convolutions(fs):
    _check_leave_one_out(fs)


def test_leave_one_out_outputs_with_different_tilts():
    down = PwlConvex.linear(-3, 0, POS_INF)  # slope range (-inf, -3]
    up = PwlConvex((0, 2, POS_INF), (1, 5), (0, 0))  # (-inf, 5]
    left = PwlConvex((NEG_INF, 0, 4), (-5, 2), (0, 1))  # [-5, inf)
    steep = PwlConvex((NEG_INF, 1, POS_INF), (7 * BIG, 9 * BIG), (1, BIG))  # [7B, 9B]
    cases = [
        [down, up, left],
        [up, left, PwlConvex.point(3, 2), down],
        [steep, PwlConvex.constant(4).tilt(8 * BIG), up.tilt(9 * BIG), left.tilt(8 * BIG)],
    ]
    for fs in cases:
        assert len(set(leave_one_out_tilts(fs))) > 1
        _check_leave_one_out(fs)
    # only the output that drops the point keeps two disjoint slope ranges
    rising = PwlConvex((NEG_INF, 0), (2,), (0, 0))  # [2, inf)
    fs = [down, rising, PwlConvex.point(1, 0)]
    with pytest.raises(UnboundedError):
        inf_convolve2(down, rising)
    with pytest.raises(UnboundedError):
        leave_one_out(fs)


def test_leave_one_out_small_degrees():
    f = PwlConvex((0, 1, 2), (-1, 2), (1, 0))
    g = PwlConvex.linear(1, 0, POS_INF)
    assert leave_one_out([f, g]) == [g, f]
    with pytest.raises(ValueError):
        leave_one_out([f])


@KERNEL
@given(
    pwl_functions(),
    pwl_functions(),
    st.sampled_from((1, -1)),
    st.one_of(st.integers(-8, 8), st.sampled_from((BIG, -BIG))),
)
def test_add_composed_equals_add_of_composition(f, h, a, b):
    try:
        want = f.add(h.compose_affine(a, b))
    except EmptyDomainError:
        with pytest.raises(EmptyDomainError):
            add_composed(f, h, a, b)
        return
    got = add_composed(f, h, a, b)
    _same(got, want)
    # independent of the shared merge: canonical, and right on and next to
    # every breakpoint
    _same(PwlConvex(got.breakpoints, got.slopes, got.anchor), got)
    for x in got.breakpoints:
        if x not in (NEG_INF, POS_INF):
            for z in (x - 1, x, x + 1):
                parts = (f.evaluate(z), h.evaluate(a * z + b))
                assert got.evaluate(z) == (POS_INF if POS_INF in parts else sum(parts)), z


def test_add_composed_rejects_bad_affine_maps():
    f = PwlConvex.linear(1, 0, 2)
    for a, b in ((2, 0), (0, 1), (1, 0.0), (-1, Fraction(1, 2))):
        with pytest.raises(ValueError):
            add_composed(f, f, a, b)
        with pytest.raises(ValueError):
            f.compose_affine(a, b)



@KERNEL
@given(pwl_functions(), pwl_functions(), pwl_functions())
def test_add_shared_equals_validated_difference(h, p, q):
    # f and g share the summand h, as an arc's two messages share its cost
    try:
        f, g = h.add(p), h.add(q)
        want = pointwise_diff(f.add(g), h)
    except EmptyDomainError:
        return
    got = add_shared(f, g, h)
    _same(got, want)
    _same(PwlConvex(got.breakpoints, got.slopes, got.anchor), got)


def test_add_shared_rejects_what_it_cannot_merge():
    h = PwlConvex.linear(1, 0, 4)
    with pytest.raises(EmptyDomainError):  # disjoint domains
        add_shared(PwlConvex.linear(0, 0, 1), PwlConvex.linear(0, 2, 3), h)
    with pytest.raises(EmptyDomainError):  # h is +inf on part of the sum's domain
        add_shared(PwlConvex.constant(0), PwlConvex.linear(0, -1, 3), h)
    vee = PwlConvex((0, 2, 4), (-1, 1), (0, 0))
    with pytest.raises(NonConvexError):  # the slopes of f + g - h fall at 2
        add_shared(h, h, vee)
    assert add_shared(h, h, h) == h
    whole = PwlConvex.constant(3).tilt(2)
    line = add_shared(whole, whole, PwlConvex.constant(1))
    assert (line, line._values) == (PwlConvex((NEG_INF, POS_INF), (4,), (0, 5)), (None, None))


@KERNEL
@given(h=pwl_functions(), p=pwl_functions(), q=pwl_functions())
def _argmin_shared_reads_the_belief(seen, h, p, q):
    # f and g share the summand h, as an arc's two messages share its cost
    try:
        f, g = h.add(p), h.add(q)
    except EmptyDomainError:
        return
    want = _outcome(lambda: add_shared(f, g, h).argmin())
    got = _outcome(argmin_shared, f, g, h)
    if isinstance(want, tuple):
        assert got == want
        seen[want[0].__name__] += 1
        return
    b = add_shared(f, g, h)
    z, left, right = got
    assert z == want
    assert (right == 0) == (z < b.domain[1] and b.right_derivative(z) == 0)
    if z == POS_INF:  # flat on all of R: the right end stands for the arg-min set
        assert (left, right) == (0, POS_INF)
        seen["flat on R"] += 1
        return
    at = b.evaluate(z)
    gaps = [POS_INF if y == POS_INF else y - at for y in (b.evaluate(z - 1), b.evaluate(z + 1))]
    assert [-left, right] == gaps
    seen["tie" if right == 0 else "left end" if left == NEG_INF else "right end" if right == POS_INF
         else "inside"] += 1


def test_argmin_shared_equals_the_belief_it_does_not_build():
    # the minimizer, tie flag and gap differences of add_shared(f, g, h),
    # and its errors, type and message
    seen: Counter = Counter()
    _argmin_shared_reads_the_belief(seen)
    for kind in ("tie", "left end", "right end", "inside", "EmptyDomainError", "UnboundedError"):
        assert seen[kind] > 0, (kind, seen)


def test_argmin_shared_rejects_what_it_cannot_merge():
    h = PwlConvex.linear(1, 0, 4)
    with pytest.raises(EmptyDomainError):  # disjoint domains
        argmin_shared(PwlConvex.linear(0, 0, 1), PwlConvex.linear(0, 2, 3), h)
    with pytest.raises(EmptyDomainError):  # h is +inf on part of the sum's domain
        argmin_shared(PwlConvex.constant(0), PwlConvex.linear(0, -1, 3), h)
    vee = PwlConvex((0, 2, 4), (-1, 1), (0, 0))
    down = PwlConvex.linear(-1, 0, 4)
    with pytest.raises(NonConvexError):  # the slopes fall at 2, before the minimizer 4
        argmin_shared(down, down, vee)
    # past the minimizer the slopes are not read: add_shared(h, h, vee)
    # falls at 2, but its read-off stops at 0
    assert argmin_shared(h, h, vee) == (0, NEG_INF, 3)
    with pytest.raises(UnboundedError):
        argmin_shared(PwlConvex.constant(0), PwlConvex.constant(0).tilt(-1), PwlConvex.constant(0))
    assert argmin_shared(h, h, h) == (0, NEG_INF, 1)
    assert argmin_shared(PwlConvex.point(3, 0), PwlConvex.point(3, 5), PwlConvex.point(3, 1)) == (3, NEG_INF, POS_INF)


@st.composite
def arc_costs(draw):
    """Costs on ``[0, cap]``: the point of a zero-capacity arc, and one to
    three pieces on a bounded or an uncapacitated domain, with slopes
    optionally scaled by ``BIG``."""
    cap = draw(st.sampled_from(("point", "bounded", "uncapacitated")))
    if cap == "point":
        return PwlConvex.point(0, 0)
    k = draw(st.integers(1, 3))
    scale = draw(st.sampled_from((1, BIG)))
    sls = [s * scale for s in sorted(draw(st.lists(st.integers(-6, 6), min_size=k, max_size=k, unique=True)))]
    inner = sorted(draw(st.lists(st.integers(1, 6), min_size=k - 1, max_size=k - 1, unique=True)))
    end = POS_INF if cap == "uncapacitated" else (inner[-1] if inner else 0) + draw(st.integers(1, 3))
    return PwlConvex([0, *inner, end], sls, (0, 0))


@st.composite
def node_cases(draw):
    """The operands, signs and finishes of one node: 2 to 7 operands of
    every domain shape, and per output an arc cost, a = +-1 and a shift
    that may be far beyond float range."""
    d = draw(st.integers(2, 7))
    incoming = draw(st.lists(pwl_functions(), min_size=d, max_size=d))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    shifts = st.one_of(st.integers(-8, 8), st.sampled_from((BIG, -BIG, 3 * BIG)))
    finishes = [(draw(arc_costs()), draw(st.sampled_from((1, -1))), draw(shifts)) for _ in range(d)]
    return incoming, signs, finishes


def _outcome(kernel, *args):
    try:
        return kernel(*args)
    except (UnboundedError, EmptyDomainError, NonConvexError) as exc:
        return type(exc), str(exc)


@KERNEL
@given(case=node_cases())
def _node_messages_match_literal_composition(seen, case):
    want = _outcome(_literal_node_messages, *case)
    got = _outcome(node_messages, *case)
    if isinstance(want, tuple):
        assert got == want
        seen[want[0].__name__] += 1
        return
    assert len(got) == len(want)
    incoming, signs, finishes = case
    reflected = [f.compose_affine(sign, 0) for f, sign in zip(incoming, signs)]
    for i, (g, w, (phi, a, b)) in enumerate(zip(got, want, finishes)):
        _same(g, w)
        # canonical and well formed, independent of the pass both share
        _same(PwlConvex(g.breakpoints, g.slopes, g.anchor), g)
        # right on and next to every breakpoint, against the pairwise
        # convolution and plain evaluation of the finish
        conv = reduce(inf_convolve2, reflected[:i] + reflected[i + 1:])
        for x in g.breakpoints:
            if x not in (NEG_INF, POS_INF):
                for z in (x - 1, x, x + 1):
                    parts = (phi.evaluate(z), conv.evaluate(a * z + b))
                    assert g.evaluate(z) == (POS_INF if POS_INF in parts else sum(parts)), (i, z)
    if len(incoming) > 2:
        seen["tilts > 1"] += len(set(leave_one_out_tilts(reflected))) > 1


def test_node_messages_equal_literal_composition(monkeypatch):
    # every output of the fused kernel is exactly add_composed over
    # leave_one_out of the reflected operands, errors, anchors and values
    # included; the spy records where each finished output's cost domain
    # lies from its split point, in the output's own coordinate, apart for
    # the outputs read reflected from the sorted pieces (a = -1)
    seen: Counter = Counter()
    finish = pwl._finish

    def spy(z, v, left, right, skip, phi, a):
        lo, hi = phi.domain
        if (lo, hi) != (NEG_INF, POS_INF):
            where = "left" if hi < z else "right" if z < lo else "straddles" if lo < z < hi else "edge"
            seen[("reflected " if a == -1 else "") + "window " + where] += 1
        return finish(z, v, left, right, skip, phi, a)

    monkeypatch.setattr(pwl, "_finish", spy)
    _node_messages_match_literal_composition(seen)
    for kind in ("window left", "window right", "window straddles",
                 "reflected window left", "reflected window right", "reflected window straddles",
                 "tilts > 1", "UnboundedError", "EmptyDomainError"):
        assert seen[kind] > 0, (kind, seen)


def test_node_messages_small_degrees():
    f = PwlConvex((0, 1, 2), (-1, 2), (1, 0))
    g = PwlConvex.linear(1, 0, POS_INF)
    phi = PwlConvex.linear(3, 0, 4)
    # two operands: the sign folds into the affine map of the other one
    assert node_messages([f, g], [1, -1], [(phi, -1, 2), (phi, -1, 5)]) == [
        add_composed(phi, g.compose_affine(-1, 0), -1, 2),
        add_composed(phi, f, -1, 5),
    ]
    with pytest.raises(ValueError):
        node_messages([f], [1], [(phi, 1, 0)])
