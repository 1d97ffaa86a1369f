import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap.algebra import AlgebraSpec, block_operator, validate_projection
from specgap.errors import (InfiniteCPhi, NoConvergenceCertificate, NotDominating,
                            ShapeMismatch)
from specgap.norms import (BaseNorm, OPERATOR, NormSpec, c_phi, dominating_check,
                           f_phi, norm_from_dict, norm_to_dict, phi_eval, phi_rank_one,
                           read_norm_spec, write_norm_spec)
from specgap.sampling import (random_block_operator, random_projection,
                              random_subprojection, rng_from_seed)

from conftest import make_spec


# diag(3, 4) has singular values {4, 3}: hand values for every base kind
DIAG34 = np.diag([3.0, 4.0]).astype(complex)


@pytest.mark.parametrize("base,expect", [
    (BaseNorm(kind="operator"), 4.0),
    (BaseNorm(kind="schatten", p=1), 7.0),
    (BaseNorm(kind="schatten", p=2), 5.0),
    (BaseNorm(kind="schatten", p=math.inf), 4.0),
    (BaseNorm(kind="kyfan", k=1), 4.0),
    (BaseNorm(kind="kyfan", k=2), 7.0),
])
def test_base_norm_values(base, expect):
    assert base.of_matrix(DIAG34) == pytest.approx(expect, rel=1e-12)


def test_base_norm_of_zero_block_needs_no_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    bases = (OPERATOR, BaseNorm(kind="schatten", p=1), BaseNorm(kind="schatten", p=3),
             BaseNorm(kind="kyfan", k=2))
    for block in (np.zeros((5, 5)), np.full((5, 5), -0.0, dtype=complex)):
        for base in bases:
            v = base.of_matrix(block)
            assert v == 0.0 and math.copysign(1.0, v) == 1.0, base
    assert not calls
    nan_block = np.zeros((5, 5))
    nan_block[2, 3] = np.nan
    with pytest.raises(np.linalg.LinAlgError):     # a NaN block still reaches the SVD
        OPERATOR.of_matrix(nan_block)
    assert calls == [1]


def test_base_norm_validation():
    with pytest.raises(ShapeMismatch):
        BaseNorm(kind="nuclear")
    with pytest.raises(ShapeMismatch):
        BaseNorm(kind="schatten", p=0.5)
    with pytest.raises(ShapeMismatch):
        BaseNorm(kind="kyfan", k=0)
    assert BaseNorm(kind="kyfan", k=2.0).k == 2      # a whole float is a count


@pytest.mark.parametrize("make", [
    lambda: BaseNorm(kind="schatten", p=True),
    lambda: BaseNorm(kind="kyfan", k=True),
    lambda: make_spec([1.0, True]),
    lambda: make_spec([np.True_]),
    lambda: NormSpec(base=(OPERATOR,), weights=(1.0,), agg="lq", q=True),
    lambda: NormSpec(base=(OPERATOR,), weights=(1.0,), tail_weights="bounded",
                     tail_sup=True),
], ids=["p", "k", "weight", "numpy-weight", "q", "tail-sup"])
def test_bools_are_refused(make):
    # a bool would read as 0 or 1 and be written back as JSON true
    with pytest.raises(ShapeMismatch, match="bool"):
        make()


@pytest.mark.parametrize("make", [
    lambda: BaseNorm(kind="schatten", p=math.nan),
    lambda: BaseNorm(kind="schatten", p=-math.inf),
    lambda: BaseNorm(kind="kyfan", k=1.5),
    lambda: BaseNorm(kind="kyfan", k=math.inf),
    lambda: BaseNorm(kind="kyfan", k=math.nan),
    lambda: make_spec([1.0, math.nan]),
    lambda: make_spec([1.0, math.inf]),
    lambda: NormSpec(base=(OPERATOR,), weights=(1.0,), agg="lq", q=math.inf),
    lambda: NormSpec(base=(OPERATOR,), weights=(1.0,), agg="lq", q=math.nan),
    lambda: NormSpec(base=(OPERATOR,), weights=(1.0,), tail_weights="bounded",
                     tail_sup=math.nan),
    lambda: NormSpec(base=(OPERATOR,), weights=(1.0,), tail_weights="bounded",
                     tail_sup=math.inf),
], ids=["p-nan", "p-neg-inf", "k-fraction", "k-inf", "k-nan", "weight-nan",
        "weight-inf", "q-inf", "q-nan", "tail-sup-nan", "tail-sup-inf"])
def test_non_finite_or_fractional_parameters_are_refused(make):
    # q = inf would price phi(0) at 1; a NaN weight or tail_sup makes c_phi NaN
    with pytest.raises(ShapeMismatch):
        make()


def test_normspec_validation():
    with pytest.raises(ShapeMismatch):
        make_spec([])
    with pytest.raises(ShapeMismatch):
        make_spec([1.0, -2.0])
    with pytest.raises(ShapeMismatch):
        NormSpec(base=(OPERATOR,), weights=(1.0,), agg="lq")    # q missing
    with pytest.raises(ShapeMismatch):
        NormSpec(base=(OPERATOR,), weights=(1.0,), tail_weights="bounded")
    with pytest.raises(NoConvergenceCertificate):
        NormSpec(base=(OPERATOR,), weights=(1.0,), agg="lq", q=2,
                 tail_weights="divergent")
    for bad in ({"base": ("operator",)}, {"agg": "max"}, {"tail_weights": "odd"}):
        with pytest.raises(ShapeMismatch):
            NormSpec(**{"base": (OPERATOR,), "weights": (1.0,), **bad})
    with pytest.raises(ShapeMismatch, match="nuclear"):
        norm_from_dict({"base": [{"kind": "nuclear"}], "weights": [1.0]})


def test_tail_weight_continuation():
    spec = make_spec([1.0, 3.0], tail_weights="divergent")
    assert spec.weight_of(1) == 3.0
    assert spec.weight_of(2) == 6.0 and spec.weight_of(5) == 48.0
    bounded = make_spec([1.0, 3.0], tail_weights="bounded", tail_sup=2.0)
    assert bounded.weight_of(17) == 2.0
    with pytest.raises(ShapeMismatch):
        make_spec([1.0, 3.0]).weight_of(2)
    # summand 3 lies in the tail: the last realized base, the tail weight
    tail = make_spec([2.0], tail_weights="bounded", tail_sup=3.0)
    assert phi_eval(tail, block_operator([(0, np.eye(2)), (3, np.eye(2))])) == 3.0


def test_phi_eval_weighted_sup_and_lq(rng):
    X = block_operator([(0, DIAG34), (1, np.diag([1.0, 0.0, 0.0]))])
    sup_spec = make_spec([2.0, 5.0])
    assert phi_eval(sup_spec, X) == pytest.approx(max(2 * 4, 5 * 1), rel=1e-12)
    lq_spec = make_spec([2.0, 5.0], agg="lq", q=2)
    assert phi_eval(lq_spec, X) == pytest.approx(np.hypot(8.0, 5.0), rel=1e-12)


@pytest.mark.parametrize("agg,q", [("sup", None), ("lq", 1.5)])
def test_phi_rank_one_matches_phi_eval(agg, q, rng):
    spec = make_spec([1.5, 1.0, 2.0],
                     kinds=[("schatten", 1, None), ("operator", None, None),
                            ("kyfan", None, 2)], agg=agg, q=q)
    structure = ((0, 2), (1, 3), (2, 4))
    for k, d in structure:
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        X = block_operator([(s, np.outer(a, b.conj()) if s == k else np.zeros((n, n)))
                            for s, n in structure])
        assert phi_rank_one(spec, structure, k, a, b) == pytest.approx(
            phi_eval(spec, X), rel=1e-12)
    with pytest.raises(ShapeMismatch):
        phi_rank_one(spec, structure + ((3, 2),), 0, a[:2], b[:2])


def test_phi_eval_is_a_norm_on(small_alg, rng):
    spec = make_spec([1.5, 1.0, 2.0],
                     kinds=[("schatten", 2, None), ("operator", None, None),
                            ("kyfan", None, 2)])
    X = random_block_operator(small_alg, rng)
    Y = random_block_operator(small_alg, rng)
    assert phi_eval(spec, X + Y) <= phi_eval(spec, X) + phi_eval(spec, Y) + 1e-12
    assert phi_eval(spec, -2j * X) == pytest.approx(2 * phi_eval(spec, X), rel=1e-12)
    assert phi_eval(spec, X.adjoint()) == pytest.approx(phi_eval(spec, X), rel=1e-12)


def test_f_phi_closed_form_and_witness(small_alg, rng):
    spec = make_spec([3.0, 1.5, 2.0])
    P = random_projection(small_alg, ranks=(1, 2, 1), rng=rng)
    res = f_phi(spec, P)
    assert res.value == pytest.approx(1.5, rel=1e-12)   # min supported weight
    assert res.summand == 1
    assert res.witness.rank == 1
    assert phi_eval(spec, res.witness.base) == pytest.approx(res.value, rel=1e-9)
    # unsupported summands cannot lower the value
    Q = random_projection(small_alg, ranks=(2, 0, 3), rng=rng)
    assert f_phi(spec, Q).value == pytest.approx(2.0, rel=1e-12)


def test_f_phi_brute_force_oracle(small_alg, rng):
    """No random subprojection ever evaluates below the closed form."""
    spec = make_spec([2.5, 1.25, 3.0],
                     kinds=[("operator", None, None), ("schatten", 3, None),
                            ("kyfan", None, 2)])
    P = random_projection(small_alg, ranks=(1, 2, 2), rng=rng)
    val = f_phi(spec, P).value
    seen = []
    for _ in range(200):
        ranks = tuple(int(rng.integers(0, r + 1)) for r in P.ranks)
        if sum(ranks) == 0:
            continue
        Q = random_subprojection(P, ranks, rng)
        seen.append(phi_eval(spec, Q.base))
    assert min(seen) >= val - 1e-9
    assert min(seen) <= 2.0 * val   # rank-one draws get close


def test_c_phi_values():
    alg = AlgebraSpec(dims=(2, 2), tail="none")
    assert c_phi(make_spec([1.0, 3.5]), alg) == pytest.approx(3.5)
    inf_alg = AlgebraSpec(dims=(2, 2), tail="repeat_last")
    assert math.isinf(c_phi(make_spec([1.0, 2.0], tail_weights="divergent"), inf_alg))
    bounded = make_spec([1.0, 2.0], tail_weights="bounded", tail_sup=7.0)
    assert c_phi(bounded, inf_alg) == pytest.approx(7.0)
    with pytest.raises(ShapeMismatch, match="summands"):
        c_phi(make_spec([1.0, 3.5]), AlgebraSpec(dims=(2, 2, 2), tail="none"))
    with pytest.raises(ShapeMismatch, match="tail"):
        c_phi(make_spec([1.0, 3.5]), inf_alg)


def test_dominating_check():
    alg = AlgebraSpec(dims=(2, 2), tail="none")
    assert dominating_check(make_spec([1.0, 2.0]), alg)
    assert not dominating_check(make_spec([0.5, 2.0]), alg)
    inf_alg = AlgebraSpec(dims=(2, 2), tail="repeat_last")
    assert not dominating_check(
        make_spec([1.0, 2.0], tail_weights="bounded", tail_sup=0.25), inf_alg)


def test_norm_json_roundtrip(tmp_path):
    spec = NormSpec(base=(BaseNorm(kind="schatten", p=math.inf),
                          BaseNorm(kind="kyfan", k=2)),
                    weights=(1.0, 2.5), agg="lq", q=3.0,
                    tail_weights="bounded", tail_sup=4.0)
    d = norm_to_dict(spec)
    assert d["base"][0] == {"kind": "schatten", "p": "inf"}
    back = norm_from_dict(d)
    assert back == spec
    p = tmp_path / "norm.json"
    write_norm_spec(spec, p)
    assert read_norm_spec(p) == spec


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(["operator", "schatten", "kyfan"]))
def test_phi_scaling_property(seed, kind):
    rng = rng_from_seed(seed)
    alg = AlgebraSpec(dims=(2, 3), tail="none")
    base = {"operator": BaseNorm(kind="operator"),
            "schatten": BaseNorm(kind="schatten", p=2.5),
            "kyfan": BaseNorm(kind="kyfan", k=2)}[kind]
    spec = NormSpec(base=(base, base), weights=(1.0, 2.0))
    X = random_block_operator(alg, rng)
    c = float(rng.uniform(0.1, 3.0))
    assert phi_eval(spec, c * X) == pytest.approx(c * phi_eval(spec, X), rel=1e-10)
    assert phi_eval(spec, X) >= 0.0
