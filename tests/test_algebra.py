import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap.algebra import (DEFAULT_TOL, AlgebraSpec, BlockOperator, Projection,
                             block_operator, central_projection, identity_like,
                             minimal_subprojection, operator_from_dict, operator_to_dict,
                             read_operator, validate_projection, write_operator, zero_like)
from specgap.errors import (EmptyBlock, NotAProjection, ShapeMismatch,
                            ZeroProjection)
from specgap.norms import f_phi
from specgap.sampling import (haar_unitary, random_block_operator, random_projection,
                              rng_from_seed)

from conftest import make_spec


def two_block(rng):
    return block_operator([(0, rng.standard_normal((2, 2))),
                           (2, rng.standard_normal((3, 3)))])


def test_block_arithmetic_matches_dense(rng):
    A = two_block(rng)
    B = two_block(rng)
    for sid in (0, 2):
        np.testing.assert_allclose((A + B).block(sid), A.block(sid) + B.block(sid))
        np.testing.assert_allclose((A - B).block(sid), A.block(sid) - B.block(sid))
        np.testing.assert_allclose((A @ B).block(sid), A.block(sid) @ B.block(sid))
        np.testing.assert_allclose((2.5j * A).block(sid), 2.5j * A.block(sid))
        np.testing.assert_allclose((-A).block(sid), -A.block(sid))
        np.testing.assert_allclose(A.adjoint().block(sid), A.block(sid).conj().T)


def test_norm_is_max_block_operator_norm(rng):
    A = two_block(rng)
    expect = max(np.linalg.norm(A.block(0), 2), np.linalg.norm(A.block(2), 2))
    assert A.norm() == pytest.approx(expect, rel=1e-12)


def test_blocks_are_read_only(rng):
    A = two_block(rng)
    with pytest.raises(ValueError):
        A.block(0)[0, 0] = 1.0


def test_summand_validation():
    with pytest.raises(ShapeMismatch):
        BlockOperator(())
    with pytest.raises(ShapeMismatch):
        block_operator([(1, np.eye(2)), (0, np.eye(2))])   # ids must increase
    with pytest.raises(ShapeMismatch):
        block_operator([(0, np.zeros((2, 3)))])            # square only
    with pytest.raises(ShapeMismatch):
        block_operator([(-1, np.eye(2))])


def test_mixed_structure_rejected(rng):
    A = two_block(rng)
    B = block_operator([(0, np.eye(2)), (1, np.eye(3))])
    with pytest.raises(ShapeMismatch):
        A + B


def test_identity_and_zero(rng):
    A = two_block(rng)
    I = identity_like(A)
    assert (A @ I - A).is_zero() and (I @ A - A).is_zero()
    assert zero_like(A).is_zero()
    assert not A.is_zero()


def test_central_projection_selects_summands(rng):
    A = two_block(rng)
    Z = central_projection(A, [2])
    assert np.allclose(Z.block(0), 0) and np.allclose(Z.block(2), np.eye(3))
    P = validate_projection(Z)
    assert P.rank == 3 and P.support == (2,)


def test_algebra_spec_tail():
    alg = AlgebraSpec(dims=[2, "3"], tail="repeat_last")
    assert alg.dims == (2, 3) and alg.n_realized == 2
    with pytest.raises(ShapeMismatch):
        AlgebraSpec(dims=(), tail="none")
    with pytest.raises(ShapeMismatch):
        AlgebraSpec(dims=(0, 2), tail="none")
    with pytest.raises(ShapeMismatch):
        AlgebraSpec(dims=(2, 3), tail="bogus")


def test_validate_projection_accepts_and_rejects(rng):
    alg = AlgebraSpec(dims=(3, 4), tail="none")
    P = random_projection(alg, ranks=(1, 2), rng=rng)
    assert P.rank == 3 and P.ranks == (1, 2)
    Q = validate_projection(identity_like(P.base) - P.base)
    assert Q.ranks == (2, 2)
    assert (P.base @ Q.base).is_zero(tol=1e-9)
    with pytest.raises(NotAProjection) as ei:
        validate_projection(random_block_operator(alg, rng))
    assert ei.value.residual > 1e-9
    # a non-finite entry is refused before any SVD can fail to converge
    for bad in (np.nan, np.inf):
        blk = np.eye(3)
        blk[0, 1] = bad
        with pytest.raises(NotAProjection) as ei:
            validate_projection(block_operator([(0, blk), (1, np.eye(4))]))
        assert ei.value.residual == np.inf


def test_projection_factor_invariant(rng):
    with pytest.raises(NotAProjection) as ei:
        Projection(((0, [[1.0], [1.0]]),))         # W*W = 2, not 1
    assert ei.value.residual > 1e-9
    with pytest.raises(ShapeMismatch):
        Projection(((0, np.eye(2, 3)),))             # wider than its block
    # a dense projection comes back from its factors within tol
    q = haar_unitary(4, rng)[:, :2]
    A = block_operator([(0, np.diag([1.0, 0.0, 1.0])), (1, q @ q.conj().T),
                        (3, np.zeros((2, 2)))])
    P = validate_projection(A)
    assert P.ranks == (2, 2, 0) and P.support == (0, 1)
    assert (P.base - A).is_zero(tol=DEFAULT_TOL)


def test_central_support_and_minimal_subprojection(rng):
    alg = AlgebraSpec(dims=(3, 4), tail="none")
    P = random_projection(alg, ranks=(0, 2), rng=rng)
    assert P.support == (1,)
    m = minimal_subprojection(P, 1)
    assert m.rank == 1
    # a subprojection: P m = m
    assert (P.base @ m.base - m.base).is_zero(tol=1e-9)
    with pytest.raises(EmptyBlock):
        minimal_subprojection(P, 0)
    with pytest.raises(ZeroProjection):
        f_phi(make_spec([1.0, 1.0]), validate_projection(zero_like(P.base)))


def test_operator_json_roundtrip(tmp_path, rng):
    A = two_block(rng)
    d = operator_to_dict(A)
    assert d["tail"] == "none"
    B = operator_from_dict(d)
    assert (A - B).is_zero(tol=0.0)     # exact: repr round-trip
    p = tmp_path / "op.json"
    write_operator(A, p)
    C = read_operator(p)
    assert (A - C).is_zero(tol=0.0)
    # serialized form is canonical: keys sorted, no whitespace drift
    assert p.read_text() == json.dumps(json.loads(p.read_text()),
                                       sort_keys=True, separators=(",", ":")) + "\n"
    # the tail field is outside input: unknown values are refused
    with pytest.raises(ShapeMismatch):
        operator_from_dict({**d, "tail": "bogus"})


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_adjoint_is_involutive_and_antimultiplicative(dims, seed):
    rng = rng_from_seed(seed)
    alg = AlgebraSpec(dims=tuple(dims), tail="none")
    A = random_block_operator(alg, rng)
    B = random_block_operator(alg, rng)
    assert (A.adjoint().adjoint() - A).is_zero(tol=0.0)
    assert ((A @ B).adjoint() - B.adjoint() @ A.adjoint()).is_zero(tol=1e-10)
