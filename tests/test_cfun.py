import gc
import json
import math
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specgap import cfun
from specgap.cfun import (_GENERATORS, _RING_ENTRIES, CantorGenerator, ClopenPiece,
                          CompactRealSet, PLFunction, _certificate_bounds,
                          _first_small_piece, _float_ends, _gap_piece,
                          _nearest_in_piece, _seg_dists, _sq_moduli, cfun_disconnect,
                          clopen_small_pieces,
                          is_finite_interval_union, nondensity_witness,
                          offrange_lambda, pl_from_dict,
                          pl_to_dict, range_components, read_pl, read_set,
                          set_from_dict, set_to_dict, write_pl, write_set)
from specgap.errors import (ConvergenceFailure, ExhaustedSamples, FiniteUnion,
                            RangeOverflow, ShapeMismatch, SpecgapError)
from specgap.sampling import rng_from_seed

from conftest import union_find_labels


# -- sets ---------------------------------------------------------------------

def test_float_endpoints_become_exact_decimals():
    X = CompactRealSet(intervals=((0.1, 0.2),))
    assert X.intervals[0] == (Fraction(1, 10), Fraction(1, 5))
    assert X.diam == Fraction(1, 10)


def test_set_normalization_and_validation():
    X = CompactRealSet(intervals=((0, 1), (2, 2)), points=(5,))
    assert X.intervals == ((0, 1),) and X.points == (Fraction(2), Fraction(5))
    assert X.contains(Fraction(1, 2)) and X.contains(2) and not X.contains(3)
    with pytest.raises(ShapeMismatch):
        CompactRealSet(intervals=((0, 1), (1, 2)))      # touching pieces
    with pytest.raises(ShapeMismatch):
        CompactRealSet()                                # empty
    with pytest.raises(ShapeMismatch):
        CompactRealSet(intervals=((1, 0),))


def test_numpy_integer_endpoints_are_read_exactly():
    X = CompactRealSet(intervals=((np.int32(2), np.int64(3)),), points=(np.int64(1),))
    assert X.points == (Fraction(1),) and X.intervals == ((Fraction(2), Fraction(3)),)
    assert all(type(x.numerator) is int for x in (X.points[0], *X.intervals[0]))


def test_nonfinite_endpoints_raise_shape_mismatch():
    for bad in (float("nan"), float("inf"), -np.inf, np.float64("nan"), "nan"):
        with pytest.raises(ShapeMismatch):
            CompactRealSet(intervals=((0, bad),))
        with pytest.raises(ShapeMismatch):
            CompactRealSet(points=(bad,))


def test_float_ends_are_bitwise_float_of_each_fraction():
    big = Fraction(2 ** 60 + 1, 2 ** 7)               # 2**53 + 1/128
    # rounding the numerator first would give ...661.0, one ulp below
    sharp = Fraction(2 ** 54 + 1, 3)
    assert float(sharp) != float(sharp.numerator) / float(sharp.denominator)
    X = CompactRealSet(intervals=((Fraction(-2, 7), Fraction(1, 3)),
                                  (Fraction(10 ** 30 + 7, 10 ** 30), Fraction(3, 2)),
                                  (Fraction(10 ** 400 + 1, 10 ** 399), 11),
                                  (big, big + 1), (sharp, sharp + 1)),
                       points=(Fraction(5, 3),))
    ends = _float_ends(X)
    assert ends.dtype == np.float64 and ends.shape == (6, 2)
    want = np.array([[float(a), float(b)] for a, b in X.pieces()])
    assert ends.tobytes() == want.tobytes()
    assert ends[2, 0] == ends[2, 1] == float(Fraction(5, 3))     # the point piece


def _restrict_by_scan(X, lo, hi):
    """Reference: keep the pieces meeting [lo, hi], reject any it slices."""
    kept = []
    for a, b in sorted(X.intervals + tuple((p, p) for p in X.points)):
        if b < lo or a > hi:
            continue
        if a < lo or b > hi:
            raise ShapeMismatch(f"cut [{lo},{hi}] slices piece [{a},{b}]")
        kept.append((a, b))
    return CompactRealSet(intervals=tuple(kept))


def test_restrict_at_piece_endpoints_and_inside_pieces():
    X = CompactRealSet(intervals=((0, 1), (2, 3), (5, 6)), points=(4, 7))
    # cuts on a piece's own ends keep it, points included
    Y = X.restrict(Fraction(2), Fraction(6))
    assert Y.intervals == ((2, 3), (5, 6)) and Y.points == (4,)
    assert X.restrict(4, 4).points == (4,) and not X.restrict(4, 4).intervals
    assert X.restrict(Fraction(3, 2), 7) == CompactRealSet(intervals=((2, 3), (5, 6)),
                                                          points=(4, 7))
    # a cut inside a piece (or on its far end) slices it
    for lo, hi in ((Fraction(5, 2), 7), (0, Fraction(11, 2)), (1, 7), (0, 5)):
        with pytest.raises(ShapeMismatch, match="slices piece"):
            X.restrict(lo, hi)
    # every cut drawn from the ends, gap midpoints and piece interiors
    cuts = sorted({Fraction(k, 4) for k in range(-2, 31)})
    for lo in cuts:
        for hi in cuts:
            try:
                want = _restrict_by_scan(X, lo, hi)
            except ShapeMismatch as exc:
                with pytest.raises(ShapeMismatch, match=re.escape(str(exc))):
                    X.restrict(lo, hi)
                continue
            assert X.restrict(lo, hi) == want


def test_contains_bisects_points_and_intervals():
    X = CompactRealSet(intervals=((0, 1), (2, 3)), points=(Fraction(3, 2), 5))
    inside = [0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 5]
    outside = [-1, Fraction(5, 4), Fraction(7, 4), 4, 6]
    assert all(X.contains(x) for x in inside)
    assert not any(X.contains(x) for x in outside)


def test_cantor_stage_structure():
    X = CompactRealSet.cantor(depth=3, ratio="1/3")
    assert len(X.intervals) == 8
    assert X.inf == 0 and X.sup == 1
    assert all(b - a == Fraction(1, 27) for a, b in X.intervals)
    assert not is_finite_interval_union(X)
    assert is_finite_interval_union(CompactRealSet(intervals=((0, 1),)))
    stage = CantorGenerator(depth=2, ratio="1/3").stage_intervals()
    for ivals, pts in ((((0, 1),), ()), (stage[1:], ()), (stage, (2,))):
        with pytest.raises(ShapeMismatch, match="generator's stage"):
            set_from_dict({"intervals": ivals, "points": pts,
                           "generator": {"cantor": {"depth": 2, "ratio": "1/3"}}})
    with pytest.raises(ShapeMismatch, match="ratio"):
        CantorGenerator(depth=2, ratio="1/2")       # no gaps left between pieces
    with pytest.raises(ShapeMismatch, match="degenerate"):
        CantorGenerator(depth=2, ratio="1/3", lo=1, hi=1)


def test_clopen_pieces_shrink_geometrically():
    X = CompactRealSet.cantor(depth=6, ratio="1/3")
    pieces = clopen_small_pieces(X, 4)
    diams = [p.diam for p in pieces]
    assert all(isinstance(d, Fraction) for d in diams)
    assert diams == sorted(diams, reverse=True)
    # cuts fall in gaps: pieces partition X
    total = sum(len(p.subset.intervals) + len(p.subset.points) for p in pieces[:-1])
    assert pieces[0].cut_hi > X.sup
    with pytest.raises(ValueError):
        clopen_small_pieces(X, 7)      # deeper than the stage
    with pytest.raises(FiniteUnion):
        clopen_small_pieces(CompactRealSet(intervals=((0, 1),)), 2)


def test_isolated_point_pieces():
    X = CompactRealSet(points=(0, 1, 4))
    pieces = clopen_small_pieces(X, 3)
    assert all(p.diam == 0 for p in pieces)
    assert all(p.subset.points == (Fraction(0),) for p in pieces)


def test_depths_and_piece_counts_must_be_integers():
    for bad in (2.5, True, 3.0, "3"):
        with pytest.raises(ShapeMismatch, match="integer"):
            CantorGenerator(depth=bad, ratio="1/3")
        with pytest.raises(ShapeMismatch, match="integer"):
            set_from_dict({"generator": {"cantor": {"depth": bad, "ratio": "1/3"}}})
    gen = CantorGenerator(depth=np.int64(3), ratio="1/3")
    assert type(gen.depth) is int and len(gen.stage_intervals()) == 8
    X = CompactRealSet.cantor(depth=4, ratio="1/3")
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="integer"):
            clopen_small_pieces(X, bad)
        with pytest.raises(ValueError, match="integer"):
            nondensity_witness(bad)
    assert len(clopen_small_pieces(X, np.int64(2))) == 2


def test_cantor_depth_is_bounded_before_any_piece_is_built(monkeypatch):
    # building depth 10**6 would never finish, so raising proves the order
    monkeypatch.setattr(CantorGenerator, "stage_intervals", None)
    for depth in (21, 10 ** 6):
        msg = re.escape(f"cantor depth {depth} asks for 2**{depth} pieces; "
                        "at most 2**20 = 1048576 are built")
        with pytest.raises(ShapeMismatch, match=msg):
            CantorGenerator(depth=depth, ratio="1/3")
        with pytest.raises(ShapeMismatch, match=msg):
            set_from_dict({"generator": {"cantor": {"depth": depth, "ratio": "1/3"}}})
    assert CantorGenerator(depth=20, ratio="1/3").depth == 20


def _stages_by_recursion(ratio, lo, hi, depth):
    """Reference: stages 1..depth by splitting every interval in Fractions."""
    segs, stages = [(lo, hi)], []
    for _ in range(depth):
        segs = [ab for a, b in segs
                for ab in ((a, a + ratio * (b - a)), (b - ratio * (b - a), b))]
        stages.append(tuple(segs))
    return stages


STAGE_RATIOS = (Fraction(1, 3), Fraction(2, 5), Fraction(3, 7))
STAGE_BASES = ((Fraction(0), Fraction(1)), (Fraction(-3, 2), Fraction(2, 7)),
               (Fraction(-5), Fraction(-1, 3)), (Fraction(1, 10), Fraction(7, 3)))


@pytest.mark.parametrize("ratio", STAGE_RATIOS)
@pytest.mark.parametrize("lo, hi", STAGE_BASES)
def test_integer_stage_matches_fraction_recursion(ratio, lo, hi):
    for depth, want in enumerate(_stages_by_recursion(ratio, lo, hi, 12), start=1):
        stage = CantorGenerator(depth=depth, ratio=ratio, lo=lo, hi=hi).stage_intervals()
        assert stage == want, depth
        assert all(type(x.numerator) is int for ab in stage for x in ab)


@pytest.mark.parametrize("ratio", STAGE_RATIOS)
@pytest.mark.parametrize("lo, hi", STAGE_BASES[:2])
def test_derived_sets_equal_validated_ones(ratio, lo, hi):
    """Sets built without re-validation equal the validating constructor's:
    the stage, every gap piece (also the restriction at its cuts) and
    restrictions of a set with points."""
    def same(Y, Z):
        assert Y == Z and Y.pieces() == Z.pieces()

    for depth in (1, 2, 5, 9):
        X = CompactRealSet.cantor(depth=depth, ratio=ratio, lo=lo, hi=hi)
        cantor = {"depth": depth, "ratio": ratio, "lo": lo, "hi": hi}
        same(X, set_from_dict({"intervals": X.intervals, "generator": {"cantor": cantor}}))
        for j, piece in enumerate(clopen_small_pieces(X, depth)):
            assert piece == _gap_piece(X, j)
            same(piece.subset, X.restrict(piece.cut_lo, piece.cut_hi))
            same(piece.subset, CompactRealSet(intervals=piece.subset.intervals))
        W = CompactRealSet(intervals=X.intervals[1:], points=(lo - 1, hi + 1))
        for cut_lo, cut_hi in ((lo - 2, hi + 2), (lo - 1, W.intervals[0][1]),
                               (piece.cut_lo, hi + 1), (hi + 1, hi + 1)):
            Y = W.restrict(cut_lo, cut_hi)
            same(Y, CompactRealSet(intervals=Y.intervals, points=Y.points))
    # a set tagged with another generator's stage is still refused
    other = CantorGenerator(depth=3, ratio=Fraction(1, 4), lo=lo, hi=hi)
    with pytest.raises(ShapeMismatch, match="generator's stage"):
        set_from_dict({"intervals": other.stage_intervals(), "generator": {"cantor": cantor}})


def test_stage_and_pieces_make_no_fraction_comparison_per_piece(monkeypatch):
    """Building a stage and cutting its small pieces compares Fractions a
    fixed number of times (the generator's range checks), whatever the depth.
    An empty registry keeps a live set of equal parameters from adding the
    key comparisons of a hit."""
    monkeypatch.setattr("specgap.cfun._GENERATORS", weakref.WeakValueDictionary())
    calls = []
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        def counted(a, b, _cmp=getattr(Fraction, name)):
            calls.append(1)
            return _cmp(a, b)
        monkeypatch.setattr(Fraction, name, counted)

    def comparisons(depth):
        calls.clear()
        clopen_small_pieces(CompactRealSet.cantor(depth, Fraction(1, 3)), depth)
        return len(calls)

    assert comparisons(4) == comparisons(10)


def test_set_from_dict_refuses_pieces_off_the_stage():
    cantor = {"depth": 3, "ratio": "1/3", "lo": 0, "hi": 1}
    X = CompactRealSet.cantor(depth=3, ratio="1/3")
    for data in ({"intervals": [[0, 0.1], [0.9, 1]], "points": [5]},
                 {"intervals": X.intervals[1:]},
                 {"intervals": X.intervals, "points": [5]},
                 {"intervals": X.intervals[:1] * 8},
                 {"intervals": [], "points": []}):
        with pytest.raises(ShapeMismatch, match="generator's stage"):
            set_from_dict({**data, "generator": {"cantor": cantor}})
    assert set_from_dict({"generator": {"cantor": cantor}}) == X
    assert set_from_dict({"intervals": X.intervals[::-1], "points": [],
                          "generator": {"cantor": cantor}}) == X


def test_equal_cantor_parameters_share_one_generator():
    """Equal parameters, after normalization, give one generator, one stage
    tuple and one float-ends array; the set reader's generator-only path
    shares them too."""
    X = CompactRealSet.cantor(depth=5, ratio="1/3")
    same = (CompactRealSet.cantor(depth=5, ratio=Fraction(1, 3)),
            CompactRealSet.cantor(depth=np.int64(5), ratio="1/3", lo=0.0, hi=Fraction(1)),
            set_from_dict({"generator": {"cantor": {"depth": 5, "ratio": "1/3"}}}),
            set_from_dict(set_to_dict(X)))
    for Y in same:
        assert Y.generator is X.generator and Y.pieces() is X.pieces()
        assert _float_ends(Y) is _float_ends(X)
    for Y in (CompactRealSet.cantor(depth=6, ratio="1/3"),
              CompactRealSet.cantor(depth=5, ratio="1/4"),
              CompactRealSet.cantor(depth=5, ratio="1/3", lo=1, hi=2),
              CompactRealSet.cantor(depth=5, ratio="1/3", hi=2)):
        assert Y.generator != X.generator and Y.pieces() is not X.pieces()


def test_generator_registry_holds_nothing_alive():
    key = (7, Fraction(2, 7), Fraction(-1), Fraction(3))
    X = CompactRealSet.cantor(depth=7, ratio="2/7", lo=-1, hi=3)
    assert _GENERATORS[key] is X.generator
    gen = weakref.ref(X.generator)
    del X
    gc.collect()
    assert gen() is None and key not in _GENERATORS
    # a later set with the same parameters registers a new generator
    Y = CompactRealSet.cantor(depth=7, ratio="2/7", lo=-1, hi=3)
    assert _GENERATORS[key] is Y.generator


def test_stage_float_ends_are_built_once_and_read_only(monkeypatch):
    built = []
    convert = cfun._ends_to_floats
    monkeypatch.setattr("specgap.cfun._ends_to_floats",
                        lambda pieces: built.append(pieces) or convert(pieces))
    X = CompactRealSet.cantor(depth=9, ratio="3/7", lo=Fraction(-5, 3), hi=Fraction(1, 9))
    Y = set_from_dict(set_to_dict(X))
    ends = _float_ends(X)
    f = PLFunction(breakpoints=(-2.0, 0.5), values=(0.0, 3.0 + 1j))
    cfun_disconnect(Y, f, 0.05)
    range_components(f, X, resolution=0.1)
    assert _float_ends(Y) is ends and X.generator.stage_float_ends() is ends
    assert built == [X.pieces()]
    want = np.array([[float(a), float(b)] for a, b in X.pieces()])
    assert ends.shape == (512, 2) and ends.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        ends[0, 0] = 0.0
    # a set derived from the stage converts its own pieces, as point sets do
    piece = clopen_small_pieces(X, 1)[0].subset
    sub = _float_ends(piece)
    assert piece.generator is None and built[-1] is piece.pieces()
    assert sub.flags.writeable and sub.tobytes() == ends[256:].tobytes()


# -- PL functions ---------------------------------------------------------------

def test_pl_eval_and_domain():
    f = PLFunction(breakpoints=(0.0, 1.0, 2.0), values=(0.0, 1j, 2.0))
    assert f(0.5) == pytest.approx(0.5j)
    assert f(1.5) == pytest.approx(1.0 + 0.5j)      # midpoint of 1j and 2
    np.testing.assert_allclose(f(np.array([0.0, 2.0])), [0.0, 2.0])
    with pytest.raises(ShapeMismatch):
        f(2.5)
    with pytest.raises(ShapeMismatch):
        PLFunction(breakpoints=(0.0,), values=(1.0,))
    with pytest.raises(ShapeMismatch):
        PLFunction(breakpoints=(0.0, 0.0), values=(1.0, 2.0))


def test_pl_function_rejects_nonfinite_data():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            PLFunction(breakpoints=(0.0, bad), values=(0.0, 1.0))
        with pytest.raises(ValueError, match="must be finite"):
            PLFunction(breakpoints=(0.0, 1.0), values=(0.0, complex(bad, 0.0)))
        with pytest.raises(ValueError, match="must be finite"):
            PLFunction(breakpoints=(0.0, 1.0), values=(0.0, complex(0.0, bad)))
        with pytest.raises(ValueError, match="must be finite"):
            pl_from_dict({"breakpoints": [0.0, 1.0], "re": [0.0, bad]})
    # finite data whose slope overflows to inf
    with pytest.raises(ValueError, match="must be finite"):
        PLFunction(breakpoints=(0.0, 1.0), values=(-1e308, 1e308))
    with pytest.raises(ValueError, match="must be finite"):
        pl_from_dict({"breakpoints": [0.0, 5e-324], "re": [0.0, 1.0]})
    # neither entry point is reached with such data: no StageTooShallow from
    # cfun_disconnect, no SciPy "data must be finite" from range_components
    X = CompactRealSet.cantor(depth=4, ratio="1/3")
    with pytest.raises(ValueError, match="must be finite"):
        cfun_disconnect(X, PLFunction(breakpoints=(-0.5, 1.5), values=(0.0, math.nan)), 0.1)
    with pytest.raises(ValueError, match="must be finite"):
        range_components(PLFunction(breakpoints=(-0.5, 1.5), values=(0.0, math.inf)), X)


def test_pl_eval_at_nan_raises_shape_mismatch():
    f = PLFunction(breakpoints=(0.0, 1.0), values=(0.0, 1j))
    with pytest.raises(ShapeMismatch):
        f(float("nan"))
    with pytest.raises(ShapeMismatch):
        f(np.array([0.5, np.nan]))


def test_pl_eval_on_empty_array():
    f = PLFunction(breakpoints=(0.0, 1.0), values=(0.0, 1j))
    for empty in (np.array([]), [], np.empty((0, 3))):
        out = f(empty)
        assert out.dtype == complex and out.shape == np.shape(empty)


def test_lipschitz_and_refine():
    f = PLFunction(breakpoints=(0.0, 1.0), values=(0.0, 3.0 + 4.0j))
    assert f.lipschitz() == pytest.approx(5.0)
    # refining by hand: breakpoints on the graph leave f and its slope alone
    t = (0.0, 0.25, 0.5, 1.0)
    g = PLFunction(breakpoints=t, values=f(np.asarray(t)))
    assert g(0.7) == pytest.approx(f(0.7))
    assert g.lipschitz() == pytest.approx(5.0)


def test_offrange_lambda_clears_the_range():
    G = PLFunction(breakpoints=(0.0, 1.0, 2.0), values=(-1.0, 0.0, 1.0))
    lam, clear = offrange_lambda(G, target=0.0, tol=0.1)
    assert abs(lam) < 0.1 and clear > 0.0
    assert abs(lam.imag) == pytest.approx(abs(lam.imag))  # off the real axis
    assert min(abs(lam - v) for v in (-1.0, 0.0, 1.0)) >= clear


def test_offrange_lambda_guards():
    G = PLFunction(breakpoints=(0.0, 1.0, 2.0), values=(-1.0, 0.0, 1.0))
    for target, tol in ((0.0, 0.0), (0.0, -0.1), (0.0, math.nan), (0.0, math.inf),
                        (complex(math.nan, 0.0), 0.1), (complex(0.0, math.inf), 0.1)):
        with pytest.raises(ValueError, match="0 < tol < inf"):
            offrange_lambda(G, target=target, tol=tol)


def test_offrange_lambda_passes_over_rings_holding_nan():
    """Steps of 1.27e154 and a tolerance of 2e154: at some ring points a
    projection's products overflow to inf - inf = NaN.  A ring holding a
    NaN is passed over, as a ring-by-ring scan passes it (its argmax is the
    NaN), and the clean rings still supply lambda."""
    vals = np.concatenate([[0j], np.cumsum([9e153 - 9e153j] + [9e153 + 9e153j] * 12)])
    G = PLFunction(breakpoints=np.arange(len(vals), dtype=float), values=vals)
    target, tol = complex(vals[3]), 2e154
    a, ab = G.values[:-1], G.values[1:] - G.values[:-1]
    ang = 2.0 * np.pi * (np.arange(16) + 0.5) / 16
    best, nan_rings = (None, 0.0), 0
    with np.errstate(all="ignore"):
        for r in (0.9, 0.7, 0.5, 0.3):
            z = target + tol * r * np.exp(1j * ang)
            clear = _seg_dists(z[:, None], a, ab, _sq_moduli(ab)).min(axis=1)
            nan_rings += bool(np.isnan(clear).any())
            k = int(np.argmax(clear))
            if clear[k] > best[1]:
                best = (complex(z[k]), float(clear[k]))
        assert 0 < nan_rings < 4 and best[1] > 0.0
        assert offrange_lambda(G, target, tol) == best


def test_offrange_lambda_scores_a_pass_per_distance_call(monkeypatch):
    """One distance call per refinement pass while the pass fits the entry
    budget; a larger pass is split into whole rings, never more entries per
    call than the budget or one ring."""
    shapes = []

    def counted(z, a, ab, denom):
        shapes.append((z.shape[0], z.shape[1], len(a)))
        return _seg_dists(z, a, ab, denom)

    monkeypatch.setattr("specgap.cfun._seg_dists", counted)
    G = PLFunction(breakpoints=(0.0, 1.0, 2.0, 3.0), values=(-1.0, 1j, 1.0, 2j))
    offrange_lambda(G, target=G(0.5), tol=0.1)
    assert shapes == [(4, 16, 3)]

    # z rounds back to this target, which lies on the range: every pass runs
    shapes.clear()
    G = PLFunction(breakpoints=(0.0, 1.0), values=(1e20j, 2e20 + 1e20j))
    with pytest.raises(ExhaustedSamples):
        offrange_lambda(G, target=1e20 + 1e20j, tol=1e-6)
    for p in range(6):
        n_ang, n_rings = 16 * 3 ** p, 4 * 2 ** p
        calls = [(k, n) for k, a, n in shapes if a == n_ang]
        assert sum(k for k, _ in calls) == n_rings
        if n_rings * n_ang <= _RING_ENTRIES:
            assert len(calls) == 1
        assert all(k * n_ang * n <= max(_RING_ENTRIES, n_ang * n) for k, n in calls)
        assert all(k * n_ang * n <= 16 * 3 ** 5 * n for k, n in calls)   # one last-pass ring
    assert len(shapes) == 1 + 1 + 1 + 4 + 22 + 128


# -- the disconnection ----------------------------------------------------------

def test_cfun_disconnect_on_cantor_stage():
    X = CompactRealSet.cantor(depth=8, ratio="1/3")
    f = PLFunction(breakpoints=(-0.5, 1.5), values=(0.0, 2.0))
    res = cfun_disconnect(X, f, eps=0.05)
    assert res.sup_dist < 0.05
    assert res.range_gap > 0.0
    assert res.lam_clearance > 0.0
    assert res.piece.subset.contains(res.t0)
    # g flattens the chosen piece to the single value lambda
    for t in np.linspace(float(res.piece.subset.inf),
                         float(res.piece.subset.sup), 7):
        if res.piece.subset.contains(Fraction(str(t))):
            assert res.g(t) == pytest.approx(res.lam, abs=1e-12)
    rep = range_components(res.g, X, resolution=res.range_gap / 12.0)
    assert rep.n_components >= 2


def test_cfun_disconnect_evaluates_each_function_once(monkeypatch):
    """Three evaluations, whatever the number of pieces: f once at t0 and
    the cuts g passes through, then f and g once each at the same knots,
    every piece end of X and f's breakpoints inside the pieces."""
    calls = []
    call = PLFunction.__call__

    def counted(self, t):
        calls.append((self, np.array(t, dtype=float)))
        return call(self, t)

    monkeypatch.setattr(PLFunction, "__call__", counted)
    f = PLFunction(breakpoints=(-0.5, 0.2, 0.75, 1.5), values=(0.0, 1j, 1.0, 2.0))
    for X, eps in ((CompactRealSet.cantor(depth=8, ratio="1/3"), 0.05),
                   (CompactRealSet(points=(0, Fraction(1, 2), 1)), 0.25),
                   (CompactRealSet(intervals=((0, Fraction(1, 3)), (Fraction(2, 3), 1)),
                                   points=(Fraction(1, 2),)), 0.25)):
        calls.clear()
        res = cfun_disconnect(X, f, eps)
        assert len(calls) == 3
        assert calls[0][0] is calls[1][0] is f and calls[2][0] is res.g
        at = calls[0][1]
        assert at[0] == float(res.t0)
        assert set(at[1:]) <= {float(res.piece.cut_lo), float(res.piece.cut_hi)}
        inside = sum(float(a) < b < float(c) for a, c in X.pieces() for b in f.breakpoints)
        assert len(calls[1][1]) == 2 * len(X.pieces()) + inside
        assert np.array_equal(calls[1][1], calls[2][1])


def test_cfun_disconnect_rounds_x_once(monkeypatch):
    calls = []

    def counted(X):
        calls.append(X)
        return _float_ends(X)

    monkeypatch.setattr("specgap.cfun._float_ends", counted)
    f = PLFunction(breakpoints=(-0.5, 0.2, 1.5), values=(0.0, 1j, 2.0))
    for X, eps in ((CompactRealSet.cantor(depth=8, ratio="1/3"), 0.05),
                   (CompactRealSet(intervals=((0, Fraction(1, 3)),), points=(1,)), 0.25)):
        calls.clear()
        cfun_disconnect(X, f, eps)
        assert calls == [X]


def test_cfun_disconnect_on_isolated_points():
    X = CompactRealSet(points=(0, 1, 2))
    f = PLFunction(breakpoints=(-1.0, 3.0), values=(0.0, 4.0))
    res = cfun_disconnect(X, f, eps=0.25)
    assert res.sup_dist < 0.25 and res.range_gap > 0.0
    vals = {complex(res.g(float(p))) for p in X.points}
    assert len(vals) >= 2


def test_cfun_disconnect_guards():
    f = PLFunction(breakpoints=(0.0, 1.0), values=(0.0, 1.0))
    with pytest.raises(FiniteUnion):
        cfun_disconnect(CompactRealSet(intervals=((0, 1),)), f, eps=0.1)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            cfun_disconnect(CompactRealSet.cantor(depth=4, ratio="1/3"), f, eps=bad)
    singleton = CompactRealSet(points=(0.5,))
    with pytest.raises(ValueError):
        cfun_disconnect(singleton, f, eps=0.1)
    off_domain = CompactRealSet.cantor(depth=4, ratio="1/3", lo=5, hi=6)
    with pytest.raises(ShapeMismatch):
        cfun_disconnect(off_domain, f, eps=0.1)
    # a callable is refused before anything else is looked at
    for X, eps in ((CompactRealSet.cantor(depth=4, ratio="1/3"), 0.1),
                   (CompactRealSet(intervals=((0, 1),)), 0.0)):
        with pytest.raises(ShapeMismatch, match="f must be a PLFunction, got function"):
            cfun_disconnect(X, lambda t: complex(t), eps=eps)


@pytest.mark.parametrize("check, bounds", [("sup_dist", lambda eps: (eps, 1.0)),
                                           ("range_gap", lambda eps: (0.0, 0.0))])
def test_cfun_disconnect_raises_when_its_own_check_fails(monkeypatch, check, bounds):
    """The certificate's bounds are checked by a raise, not an assert that
    ``python -O`` strips; each bound fails on its own."""
    eps = 0.05
    monkeypatch.setattr("specgap.cfun._certificate_bounds", lambda *args: bounds(eps))
    X = CompactRealSet.cantor(depth=8, ratio="1/3")
    f = PLFunction(breakpoints=(-0.5, 1.5), values=(0.0, 2.0))
    message = {"sup_dist": r"sup\|g - f\| = 0.05 failed", "range_gap": "gap 0.0"}[check]
    with pytest.raises(ConvergenceFailure, match=message) as info:
        cfun_disconnect(X, f, eps=eps)
    assert isinstance(info.value, SpecgapError)


# -- the nondensity witness ------------------------------------------------------

def test_nondensity_witness_layout():
    X, f = nondensity_witness(3)
    assert X.intervals == ((2, 3), (4, 5), (6, 7))
    assert f(2.0) == pytest.approx(-1.0) and f(3.0) == pytest.approx(1.0)
    assert f(4.0) == pytest.approx(-1j) and f(5.0) == pytest.approx(1j)
    assert f(6.0) == pytest.approx(-1j) and f(7.0) == pytest.approx(1j)
    with pytest.raises(ValueError):
        nondensity_witness(0)


def test_nondensity_witness_resists_perturbation(rng):
    X, f = nondensity_witness(2)
    vals = np.asarray(f.values)
    for _ in range(25):
        bump = rng.standard_normal(len(vals)) + 1j * rng.standard_normal(len(vals))
        bump *= 0.09 / np.abs(bump).max()
        g = PLFunction(breakpoints=f.breakpoints, values=vals + bump)
        rep = range_components(g, X, resolution=1e-3)
        assert rep.connected


def test_range_components_counts_and_gap():
    # two constant plateaus 3 apart, far beyond any merge threshold
    g = PLFunction(breakpoints=(0.0, 1.0, 2.0, 3.0), values=(0.0, 0.0, 3.0, 3.0))
    X = CompactRealSet(intervals=((0, Fraction(1, 2)), (Fraction(5, 2), 3)))
    rep = range_components(g, X, resolution=1e-3)
    assert rep.n_components == 2
    assert rep.gap == pytest.approx(3.0, abs=1e-6)
    assert not rep.connected
    joined = range_components(g, CompactRealSet(intervals=((0, 3),)),
                              resolution=1e-3)
    assert joined.connected and joined.gap == np.inf
    # parallel images 0.030 apart, under a threshold of 0.0302, link
    band = PLFunction(breakpoints=(0.0, 1.0, 2.0, 3.0),
                      values=(0.0, 1.0, -0.005 + 0.03j, 0.995 + 0.03j))
    rep = range_components(band, CompactRealSet(intervals=((0, 1), (2, 3))), resolution=1e-2)
    assert rep.connected and rep.threshold > 0.0301


def test_range_components_resolution_guard():
    g = PLFunction(breakpoints=(0.0, 1.0), values=(0.0, 1.0))
    X = CompactRealSet(intervals=((0, Fraction(1, 4)),), points=(1,))
    for bad in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            range_components(g, X, resolution=bad)


def _orient(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _sq_point_segment(w, a, b):
    dx, dy, wx, wy = b[0] - a[0], b[1] - a[1], w[0] - a[0], w[1] - a[1]
    dd, s = dx * dx + dy * dy, wx * dx + wy * dy
    if s <= 0 or dd == 0:
        return Fraction(wx * wx + wy * wy)
    if s >= dd:
        return Fraction((w[0] - b[0]) ** 2 + (w[1] - b[1]) ** 2)
    return Fraction((wx * dy - wy * dx) ** 2, dd)


def _sq_segment_distance(p0, p1, q0, q1):
    """0 where the segments cross, else the least endpoint-to-segment
    distance, which is their distance; squared, exactly, on integer points."""
    if (_orient(p0, p1, q0) * _orient(p0, p1, q1) < 0
            and _orient(q0, q1, p0) * _orient(q0, q1, p1) < 0):
        return Fraction(0)
    return min(_sq_point_segment(q0, p0, p1), _sq_point_segment(q1, p0, p1),
               _sq_point_segment(p0, q0, q1), _sq_point_segment(p1, q0, q1))


def _sqrt(x: Fraction) -> float:
    """sqrt(x) within a few units of roundoff, for x far beyond float range."""
    k = (x.numerator.bit_length() - x.denominator.bit_length()) // 2
    return math.sqrt(x / Fraction(4) ** k) * 2.0 ** k


def _ref_range_components(g, X, resolution):
    """Exact single linkage over the image polylines.  Each piece's chain
    runs through g's float values at its ends and at g's breakpoints inside
    it; these are dyadic, so one power of two scales them to integers and
    the geometry is exact.  Two chains link when some pair of their segments is
    within the threshold.  Returns the component counts with links at
    threshold + mu and at threshold - mu, mu = 64 u (max|g| + threshold),
    the number of knots, the least distance between components at
    threshold + mu (inf when one) and mu: range_components must land
    between them whatever it rounds."""
    threshold = 3.0 * g.lipschitz() * resolution
    b = np.asarray(g.breakpoints)
    knots = []
    for a, c in X.pieces():
        fa, fc = float(a), float(c)
        knots.append([fa, *b[(b > fa) & (b < fc)], fc])
    values = g(np.concatenate(knots))
    mu = 64 * 2.0 ** -53 * (float(np.max(np.abs(values))) + threshold)
    coords = [Fraction(x) for w in values.tolist() for x in (w.real, w.imag)]
    scale = max(x.denominator for x in coords)      # a power of two
    ints = [x.numerator * (scale // x.denominator) for x in coords]
    points = list(zip(ints[::2], ints[1::2]))
    ends = np.cumsum([0] + [len(t) for t in knots]).tolist()
    z = [points[s:t] for s, t in zip(ends, ends[1:])]
    n = len(z)
    dist = {(i, j): min(_sq_segment_distance(p0, p1, q0, q1)
                        for p0, p1 in zip(z[i], z[i][1:]) for q0, q1 in zip(z[j], z[j][1:]))
            / scale ** 2 for i in range(n) for j in range(i + 1, n)}

    def labels(level):
        level = Fraction(max(level, 0.0))
        return union_find_labels(n, [ij for ij, d in dist.items() if d <= level * level])

    near, far = labels(threshold + mu), labels(threshold - mu)
    gaps = [d for (i, j), d in dist.items() if near[i] != near[j]]
    gap = _sqrt(min(gaps)) if gaps else math.inf
    return max(near) + 1, max(far) + 1, sum(map(len, knots)), gap, mu


def _assert_matches_reference(g, X, resolution):
    rep = range_components(g, X, resolution=resolution)
    n_near, n_far, n_knots, gap, mu = _ref_range_components(g, X, resolution)
    assert n_near <= rep.n_components <= n_far and rep.n_samples == n_knots
    if n_near == n_far:
        assert rep.gap == gap or abs(rep.gap - gap) <= mu


def _two_of_three():
    X = CompactRealSet(intervals=((0, 1), (2, 3), (20, 21)))
    g = PLFunction(breakpoints=(0.0, 1.0, 2.0, 3.0, 20.0, 21.0),
                   values=(0.0, 1.0, 0.025j, 1 + 0.025j, 10j, 1 + 10j))
    return g, X, 1e-2


def _range_reference_cases():
    rng = rng_from_seed(20260814)
    cantor = CompactRealSet.cantor(depth=6, ratio="1/3")
    t = np.linspace(-0.5, 1.5, 9)
    f = PLFunction(breakpoints=t, values=rng.standard_normal(9) + 1j * rng.standard_normal(9))
    yield "cantor-6", f, cantor, 1e-3
    yield "cantor-6-split", cfun_disconnect(cantor, f, 0.5).g, cantor, 1e-3
    for n in (1, 2, 3, 4):
        W, fw = nondensity_witness(n)
        vals = np.asarray(fw.values)
        bump = rng.standard_normal(len(vals)) + 1j * rng.standard_normal(len(vals))
        bump *= 0.099 / np.abs(bump).max()
        yield f"witness-{n}", PLFunction(breakpoints=fw.breakpoints, values=vals + bump), W, 1e-2
    plateaus = PLFunction(breakpoints=(0.0, 1.0, 2.0, 3.0), values=(0.0, 0.0, 3.0, 3.0))
    yield "two-plateaus", plateaus, CompactRealSet(intervals=((0, Fraction(1, 2)),
                                                              (Fraction(5, 2), 3))), 1e-3
    two = CompactRealSet(intervals=((0, Fraction(1, 2)), (Fraction(3, 4), 1)))
    kinked = PLFunction(breakpoints=(0.0, 0.31234, 1.0), values=(0.0, 1j, 0.5))
    yield "breakpoint-inside", kinked, two, 1e-2
    ends = PLFunction(breakpoints=(0.0, 0.5, 0.75, 1.0), values=(0.0, 1j, 0.5, 0.5 + 1j))
    yield "breakpoints-at-ends", ends, two, 1e-2
    # 3 * (1/8) * 5e-324 rounds to a threshold of 0; the images are 1/32 apart
    yield "zero-threshold", PLFunction(breakpoints=(0.0, 8.0), values=(0.0, 1j)), two, 5e-324
    # Lip ~ 1 at resolution 1e-2, a threshold of about 0.030: parallel
    # images 0.025 and 0.030 apart both link
    apart = CompactRealSet(intervals=((0, 1), (2, 3)))
    yield "band-settles-linked", PLFunction(breakpoints=(0.0, 1.0, 2.0, 3.0),
                                            values=(0.0, 1.0, 0.025j, 1 + 0.025j)), apart, 1e-2
    yield "band-settles-apart", PLFunction(breakpoints=(0.0, 1.0, 2.0, 3.0),
                                           values=(0.0, 1.0, -0.005 + 0.03j, 0.995 + 0.03j)), apart, 1e-2
    yield "constant", PLFunction(breakpoints=(0.0, 3.0), values=(1 + 1j, 1 + 1j)), apart, 1e-2
    # the first two images link 0.025 apart, and the third stays 9.975 away
    yield "samples-join-two-of-three", *_two_of_three()
    cantor8 = CompactRealSet.cantor(depth=8, ratio="1/3")
    t = np.linspace(-0.2, 1.2, 9)
    f8 = PLFunction(breakpoints=t, values=rng.standard_normal(9) + 1j * rng.standard_normal(9))
    split = cfun_disconnect(cantor8, f8, 0.25)
    yield "cantor-8-split", split.g, cantor8, split.range_gap / (6.0 * split.g.lipschitz())
    yield "point-on-image", PLFunction(breakpoints=(0.0, 1.0, 2.0), values=(0.0, 1.0, 0.5)), \
        CompactRealSet(intervals=((0, 1),), points=(2,)), 1e-2
    # one long image [0, 3] beside 40 short ones at distances around the threshold
    starts = [2 + Fraction(k, 20) for k in range(40)]
    bps, vals = [0.0, 1.0], [0.0, 3.0]
    for k, a in enumerate(starts):
        y = 0.02j * (1 + k % 5) * (-1) ** k
        bps += [float(a), float(a + Fraction(1, 100))]
        vals += [0.07 * k + y, 0.07 * k + 0.01 + y]
    yield "long-beside-short", PLFunction(breakpoints=bps, values=vals), CompactRealSet(
        intervals=((0, 1),) + tuple((a, a + Fraction(1, 100)) for a in starts)), 1e-2
    # images that touch at an end, overlap along a line, or end on the
    # inside of a slanted segment, at a threshold of 3e-12
    yield "touching", PLFunction(breakpoints=(0.0, 1.0, 2.0, 3.0),
                                 values=(0.0, 1.0, 1.0, 1 + 1j)), apart, 1e-12
    yield "collinear-overlap", PLFunction(breakpoints=(0.0, 1.0, 2.0, 3.0),
                                          values=(0.0, 2.0, 1.0, 3.0)), apart, 1e-12
    yield "point-on-segment", PLFunction(breakpoints=(0.0, 1.0, 2.0, 3.0),
                                         values=(0.0, 3 + 1j, 1.5 + 0.5j, 2 - 1j)), apart, 1e-12
    # images 1e152 apart under a threshold of 3e152: squaring the 1e155-long
    # segments overflows, so the geometry must be scaled to keep them linked
    yield "huge-values", PLFunction(breakpoints=(0.0, 1.0, 2.0, 3.0), values=(
        0.0, 1e155, 0.5e155 + 1e152j, 1.5e155 + 1e152j)), apart, 1e-3
    # the same images shrunk to 1e-165: squared lengths underflow
    yield "tiny-values", PLFunction(breakpoints=(0.0, 1.0, 2.0, 3.0), values=(
        0.0, 1e-165, 0.5e-165 + 1e-168j, 1.5e-165 + 1e-168j)), apart, 1e-3


@pytest.mark.parametrize("case", list(_range_reference_cases()), ids=lambda c: c[0])
def test_range_components_matches_brute_force_linkage(case):
    _assert_matches_reference(*case[1:])


def test_range_components_evaluates_g_once(monkeypatch):
    """g is evaluated at the 6 knots and nowhere else: the polylines link
    the first two chains and leave the third apart."""
    calls, labels = [], []
    call, link_components = PLFunction.__call__, cfun.link_components

    def counted(self, t):
        calls.append(len(np.atleast_1d(t)))
        return call(self, t)

    def recorded(*args):
        labels.append(link_components(*args).tolist())
        return np.asarray(labels[-1])

    monkeypatch.setattr(PLFunction, "__call__", counted)
    monkeypatch.setattr(cfun, "link_components", recorded)
    g, X, resolution = _two_of_three()
    rep = range_components(g, X, resolution=resolution)
    assert (rep.n_components, rep.n_samples, rep.gap) == (2, 6, pytest.approx(9.975))
    assert calls == [6]
    assert labels == [[0, 0, 1]]


@st.composite
def _small_range_inputs(draw):
    """1-6 pieces of [0, 1] (points and intervals) with ends on a 1/1000
    grid, a PL g on [0, 1] whose values sit on a quarter grid (so images
    coincide, overlap and run collinear), and a resolution in [1e-3, 1e-1]."""
    n = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.integers(0, 1000), min_size=2 * n, max_size=2 * n,
                                unique=True)))
    kinds = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    X = CompactRealSet(
        intervals=tuple((Fraction(cuts[2 * k], 1000), Fraction(cuts[2 * k + 1], 1000))
                        for k in range(n) if kinds[k]),
        points=tuple(Fraction(cuts[2 * k], 1000) for k in range(n) if not kinds[k]))
    inner = draw(st.lists(st.integers(1, 999), max_size=6, unique=True))
    bps = [0.0] + sorted(k / 1000 for k in inner) + [1.0]
    quarter = st.integers(-8, 8).map(lambda k: k / 4)
    vals = [complex(draw(quarter), draw(quarter)) for _ in bps]
    return PLFunction(breakpoints=bps, values=vals), X, draw(st.floats(1e-3, 1e-1))


@settings(max_examples=1000, deadline=None)
@given(_small_range_inputs())
def test_range_components_matches_brute_force_on_small_inputs(case):
    _assert_matches_reference(*case)


def test_range_components_outside_the_domain_raises():
    g = PLFunction(breakpoints=(0.0, 1.0), values=(0.0, 1j))
    for X in (CompactRealSet(intervals=((Fraction(1, 2), 2),)),
              CompactRealSet.cantor(depth=3, ratio="1/3", lo=Fraction(1, 2), hi=2)):
        with pytest.raises(ShapeMismatch):
            range_components(g, X, resolution=1e-2)


# -- persistence ------------------------------------------------------------------

def test_set_json_roundtrip(tmp_path):
    X = CompactRealSet.cantor(depth=5, ratio="1/3")
    d = set_to_dict(X)
    assert list(d) == ["generator"] and d["generator"]["cantor"]["ratio"] == "1/3"
    Y = set_from_dict(json.loads(json.dumps(d)))
    assert Y == X
    p = tmp_path / "set.json"
    write_set(X, p)
    assert read_set(p) == X
    # plain union with a decimal endpoint stays exact through the file
    Z = CompactRealSet(intervals=((0.1, 0.35),), points=(2,))
    write_set(Z, p)
    assert read_set(p) == Z


def test_stage_file_is_its_generator_and_older_files_still_read(tmp_path):
    """A stage is written as its generator alone, whatever its depth; a file
    that also lists the stage's pieces, as older writers made, reads as the
    same stage."""
    p = tmp_path / "set.json"
    X = CompactRealSet.cantor(depth=16, ratio="1/3")
    write_set(X, p)
    assert p.stat().st_size <= 100 and read_set(p) == X
    p.write_text('{"generator":{"cantor":{"depth":2,"hi":0.5,"lo":-1.0,"ratio":"1/3"}},'
                 '"intervals":[[-1.0,"-5/6"],["-2/3",-0.5],[0.0,"1/6"],["1/3",0.5]],'
                 '"points":[]}\n')
    Y = read_set(p)
    assert Y == CompactRealSet.cantor(depth=2, ratio="1/3", lo=-1, hi="1/2")
    assert Y.generator is not None and not is_finite_interval_union(Y)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_pl_json_roundtrip(tmp_path):
    f = PLFunction(breakpoints=(0.0, 0.5, 1.0), values=(1.0, -1j, 0.25 + 0.25j))
    p = tmp_path / "pl.json"
    write_pl(f, p)
    for g in (pl_from_dict(pl_to_dict(f)), read_pl(p)):
        assert _same_bits(g.breakpoints, f.breakpoints) and _same_bits(g.values, f.values)
    rerun = p.read_bytes()
    write_pl(f, p)
    assert p.read_bytes() == rerun      # byte-identical rewrites


def test_pl_file_round_trips_signed_zeros_bitwise(tmp_path):
    """Values are read part by part, so a -0.0 part survives write, read
    and write, and so does a subnormal one."""
    text = '{"breakpoints":[-0.0,1.0,2.0],"im":[-0.0,0.0,5e-324],"re":[1.0,-0.0,-0.0]}\n'
    p, q = tmp_path / "a.json", tmp_path / "b.json"
    p.write_text(text)
    f = read_pl(p)
    assert np.signbit(f.values.real).tolist() == [False, True, True]
    assert np.signbit(f.values.imag).tolist() == [True, False, False]
    write_pl(f, q)
    assert q.read_text() == text
    g = read_pl(q)
    assert _same_bits(g.breakpoints, f.breakpoints) and _same_bits(g.values, f.values)


def test_pl_function_holds_its_knots_once_read_only():
    f = PLFunction(breakpoints=(0, Fraction(1, 3), 1), values=(1, 2j, -0.0))
    assert {k for k in vars(f)} == {"breakpoints", "values"}
    assert f.breakpoints.dtype == np.float64 and f.values.dtype == np.complex128
    assert not (f.breakpoints.flags.writeable or f.values.flags.writeable)
    with pytest.raises(ValueError):
        f == PLFunction(breakpoints=f.breakpoints, values=f.values)
    with pytest.raises(TypeError):
        hash(f)


def test_pl_file_with_unequal_parts_is_refused():
    with pytest.raises(ShapeMismatch):
        pl_from_dict({"breakpoints": [0.0, 1.0], "re": [0.0, 1.0], "im": [0.0]})
    f = pl_from_dict({"breakpoints": [0.0, 1.0], "re": [0.0, 1.0]})
    assert f.values.imag.tolist() == [0.0, 0.0]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6),
       st.fractions(min_value="1/10", max_value="2/5"),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_cantor_piece_partition_property(depth, ratio, seed):
    """Pieces are disjoint clopen chunks of X; only material below the last
    cut is left over, and diameters shrink weakly."""
    X = CompactRealSet.cantor(depth=depth, ratio=ratio)
    n = min(3, depth)
    pieces = clopen_small_pieces(X, n)
    ivals = sorted(iv for p in pieces for iv in p.subset.intervals)
    assert len(set(ivals)) == len(ivals)            # pairwise disjoint
    assert set(ivals) <= set(X.intervals)
    last_cut = pieces[-1].cut_lo
    leftovers = set(X.intervals) - set(ivals)
    assert all(b < last_cut for _, b in leftovers)  # residue sits below
    diams = [p.diam for p in pieces]
    assert diams == sorted(diams, reverse=True)
    assert diams[-1] <= X.diam * ratio ** (n - 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=9),
       st.fractions(min_value=0, max_value="1/2", max_denominator=60),
       st.fractions(min_value=-5, max_value=5, max_denominator=12),
       st.fractions(min_value="1/7", max_value=9, max_denominator=12),
       st.floats(min_value=0.0, max_value=50.0),
       st.data())
def test_first_small_piece_is_the_first_small_enough(depth, ratio, lo, length, lip, data):
    """The closed-form diameters pick the same piece as building every
    piece, with budgets at, just below and just above each piece's lip * diam."""
    assume(0 < ratio < Fraction(1, 2))
    X = CompactRealSet.cantor(depth=depth, ratio=ratio, lo=lo, hi=lo + length)
    pieces = clopen_small_pieces(X, depth)
    at = lip * float(data.draw(st.sampled_from(pieces)).diam)
    for budget in (at, math.nextafter(at, -math.inf), math.nextafter(at, math.inf)):
        want = next((p for p in pieces if lip * float(p.diam) < budget), None)
        assert _first_small_piece(X, lip, budget) == want


# -- bulk evaluation against per-piece references ---------------------------------
# The references evaluate piece by piece with scalar arithmetic; the bulk code
# must reproduce them bit for bit (==), including CPython's rounding of abs.

def _ref_pieces(X):
    return sorted(X.intervals + tuple((p, p) for p in X.points))


def _ref_seg_dist(z, a, b):
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(z - a)
    t = ((z - a).real * ab.real + (z - a).imag * ab.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * ab))


def _ref_nearest(X):
    center = (X.inf + X.sup) / 2
    best, best_d = None, None
    for a, b in _ref_pieces(X):
        cand = center if a <= center <= b else (a if center < a else b)
        if best is None or abs(cand - center) < best_d:
            best, best_d = cand, abs(cand - center)
    return best


def _ref_sup_dist(g, f, X):
    knots = np.union1d(np.asarray(g.breakpoints), np.asarray(f.breakpoints))
    best = 0.0
    for a, c in _ref_pieces(X):
        fa, fc = float(a), float(c)
        if fa == fc:
            best = max(best, abs(g(fa) - f(fa)))
            continue
        cand = np.concatenate(([fa], knots[(knots > fa) & (knots < fc)], [fc]))
        best = max(best, float(np.max(np.abs(g(cand) - f(cand)))))
    return best


def _ref_range_gap_outside(g, X, piece, lam):
    gap = math.inf
    b = np.asarray(g.breakpoints)
    lo_cut, hi_cut = float(piece.cut_lo), float(piece.cut_hi)
    for a, c in _ref_pieces(X):
        fa, fc = float(a), float(c)
        if lo_cut < fa and fc < hi_cut:
            continue
        if fa == fc:
            gap = min(gap, abs(lam - g(fa)))
            continue
        vals = g(np.concatenate(([fa], b[(b > fa) & (b < fc)], [fc])))
        for z0, z1 in zip(vals[:-1], vals[1:]):
            gap = min(gap, _ref_seg_dist(lam, z0, z1))
    return float(gap)


def _ref_offrange_lambda(G, target, tol):
    target = complex(target)
    segs = list(zip(G.values[:-1], G.values[1:]))
    best = (None, 0.0)
    n_ang, radii = 16, (0.9, 0.7, 0.5, 0.3)
    for _ in range(6):
        for r in radii:
            ang = 2.0 * np.pi * (np.arange(n_ang) + 0.5) / n_ang
            for z in target + tol * r * np.exp(1j * ang):
                clear = min(_ref_seg_dist(z, a, b) for a, b in segs)
                if clear > best[1]:
                    best = (complex(z), float(clear))
        if best[0] is not None and best[1] > 0.0:
            return best
        n_ang *= 3
        radii = tuple(r * 0.6 for r in radii) + radii
    raise ExhaustedSamples("no clearing value")


GRID = 8            # endpoints and some knots sit on the grid k / GRID - 5


@st.composite
def mixed_sets(draw):
    kind = draw(st.sampled_from(["points", "intervals", "mixed"]))
    ks = sorted(draw(st.lists(st.integers(0, 80), min_size=2, max_size=14, unique=True)))
    ends = [Fraction(k, GRID) - 5 for k in ks]
    ivals, pts, i = [], [], 0
    while i < len(ends):
        pair = i + 1 < len(ends) and (kind == "intervals" or
                                      (kind == "mixed" and draw(st.booleans())))
        if pair:
            ivals.append((ends[i], ends[i + 1]))
            i += 2
        else:
            pts.append(ends[i])
            i += 1
    return CompactRealSet(intervals=tuple(ivals), points=tuple(pts))


_values = st.one_of(st.integers(-3, 3).map(lambda k: k / 2),
                    st.floats(-10, 10, allow_nan=False, allow_infinity=False))


@st.composite
def pl_covering(draw, X):
    """A PL function on [inf X - 1, sup X + 1] whose knots include grid
    points, so some fall exactly on piece ends."""
    lo, hi = float(X.inf) - 1.0, float(X.sup) + 1.0
    on_grid = draw(st.lists(st.integers(0, 80).map(lambda k: k / GRID - 5.0),
                            max_size=10))
    off_grid = draw(st.lists(st.floats(lo, hi), max_size=6))
    b = np.union1d([lo, hi], [x for x in on_grid + off_grid if lo <= x <= hi])
    vals = [complex(draw(_values), draw(_values)) for _ in b]
    # knots ~1e-308 apart can make a slope overflow, which the constructor
    # refuses (see test_pl_function_rejects_nonfinite_data)
    with np.errstate(over="ignore"):
        assume(np.isfinite(np.abs(np.diff(vals)) / np.diff(b)).all())
    return PLFunction(breakpoints=b, values=vals)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_bulk_evaluation_matches_per_piece_references(data):
    X = data.draw(mixed_sets())
    g, f = data.draw(pl_covering(X)), data.draw(pl_covering(X))
    assert _nearest_in_piece(ClopenPiece(subset=X, cut_lo=X.inf - 1,
                                         cut_hi=X.sup + 1)) == _ref_nearest(X)

    def in_gap(k):
        """The cut k / 16 - 5, moved past the piece it falls in, if any."""
        c = Fraction(k, 2 * GRID) - 5
        return next((b + Fraction(1, 2 * GRID) for a, b in X.pieces() if a < c < b), c)

    cut = sorted(data.draw(st.lists(st.integers(-1, 81), min_size=2, max_size=2)))
    piece = ClopenPiece(subset=X, cut_lo=in_gap(2 * cut[0] + 1), cut_hi=in_gap(2 * cut[1] + 1))
    # g spliced as cfun_disconnect splices it: f's breakpoints beyond the
    # cuts, which lie in gaps of X, and between them piece ends only; its
    # values are those of the drawn g
    cuts = float(piece.cut_lo), float(piece.cut_hi)
    fb, ends = np.asarray(f.breakpoints), _float_ends(X)
    between = ends[(cuts[0] < ends[:, 0]) & (ends[:, 1] < cuts[1])]
    bg = np.union1d(fb[(fb < cuts[0]) | (fb > cuts[1])],
                    np.concatenate([fb[[0, -1]], between.ravel()]))
    vals = g(bg)
    with np.errstate(over="ignore"):
        assume(np.isfinite(np.abs(np.diff(vals)) / np.diff(bg)).all())
    g = PLFunction(breakpoints=bg, values=vals)
    lam = data.draw(st.one_of(st.sampled_from(g.values),
                              st.builds(complex, _values, _values)))
    assert (_certificate_bounds(g, f, ends, cuts, lam)
            == (_ref_sup_dist(g, f, X), _ref_range_gap_outside(g, X, piece, lam)))

    target = data.draw(st.one_of(st.sampled_from(g.values),
                                 st.builds(complex, _values, _values)))
    tol = data.draw(st.floats(1e-3, 4.0))
    try:
        want = _ref_offrange_lambda(g, target, tol)
    except ExhaustedSamples:
        with pytest.raises(ExhaustedSamples):
            offrange_lambda(g, target, tol)
    else:
        assert offrange_lambda(g, target, tol) == want


def test_certificate_bounds_take_f_breakpoints_inside_the_piece():
    """g is flat on the piece [2, 3] between the cuts 1.5 and 4, where f
    peaks at its breakpoint 2.5: the sup is taken there, a knot of f only."""
    X = CompactRealSet(intervals=((0, 1), (2, 3)))
    f = PLFunction(breakpoints=(0.0, 2.5, 4.0), values=(0.0, 10.0, 0.0))
    g = PLFunction(breakpoints=(0.0, 1.5, 2.0, 3.0, 4.0), values=(0.0, 6.0, 20j, 20j, 0.0))
    piece = ClopenPiece(subset=X.restrict(Fraction(3, 2), Fraction(4)),
                        cut_lo=Fraction(3, 2), cut_hi=Fraction(4))
    got = _certificate_bounds(g, f, _float_ends(X), (1.5, 4.0), 20j)
    assert got == (_ref_sup_dist(g, f, X), _ref_range_gap_outside(g, X, piece, 20j))
    assert got == (abs(20j - 10.0), 20.0)


def test_segment_projection_squares_with_pow():
    """|b - a|**2 is C pow(h, 2), which differs from h * h in the last bit
    for this h; lam on the segment then sits at distance 0.0 with pow and
    2.2e-16 with h * h."""
    h, lam = 1.747937, 1.299 + 0j
    assert h ** 2 != h * h
    g = PLFunction(breakpoints=(0.0, 1.0), values=(0.0, h))
    X = CompactRealSet(intervals=((0, 1),))
    piece = ClopenPiece(subset=X, cut_lo=Fraction(2), cut_hi=Fraction(3))
    assert (_certificate_bounds(g, g, _float_ends(X), (2.0, 3.0), lam)[1]
            == _ref_range_gap_outside(g, X, piece, lam) == 0.0)


def test_overflowing_segment_raises_range_overflow():
    """A segment of f's range whose squared length overflows is a typed
    error naming its length, not a bare OverflowError."""
    X = CompactRealSet(points=(0, 1))
    f = PLFunction(breakpoints=(-1.0, 2.0), values=(0.0, 3e154))
    with pytest.raises(RangeOverflow, match=r"segment of the range is 3e\+154 long") as info:
        cfun_disconnect(X, f, eps=1e150)
    assert isinstance(info.value, SpecgapError)
    with pytest.raises(RangeOverflow, match=r"1\.5e\+154 long"):
        _sq_moduli(np.array([1.0, 1.5e154]))
    assert _sq_moduli(np.array([3.0 + 4.0j, 1.747937])).tolist() == [25.0, 1.747937 ** 2]
