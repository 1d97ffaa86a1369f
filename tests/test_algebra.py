import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap._jsonio import dump, jsonable
from specgap.algebra import (DEFAULT_TOL, AlgebraSpec, BlockOperator, Projection,
                             block_operator, central_projection, identity_like,
                             minimal_subprojection, operator_from_dict, operator_to_dict,
                             read_operator, validate_projection, write_operator, zero_like,
                             _rank_one, _rank_one_to_dict)
from specgap.errors import (EmptyBlock, NotAProjection, ShapeMismatch,
                            ZeroProjection)
from specgap.norms import f_phi
from specgap.perturb import (counterexample_net, counterexample_operator, disconnect_rr0,
                             verify_counterexample)
from specgap.sampling import (haar_unitary, random_block_operator, random_projection,
                              random_subprojection, rng_from_seed)
from specgap.uppertri import shift_example

from conftest import make_spec, traced_peak


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


def test_caller_arrays_are_copied():
    writable = np.array([[1.0, 2.0], [3.0, 4.0]])
    frozen = np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.complex128)
    frozen.setflags(write=False)
    assert frozen.base is None          # it owns its buffer: writes can come back
    made = [make([(0, writable), (1, frozen)])
            for make in (lambda pairs: BlockOperator(tuple(pairs)), block_operator)]
    for T in made:
        assert T.block(1) is not frozen
        assert not np.shares_memory(T.block(0), writable)
        assert not np.shares_memory(T.block(1), frozen)
    frozen.setflags(write=True)
    writable[0, 0] = frozen[0, 0] = 99.0
    for T in made:
        assert T.block(0)[0, 0] == 1.0 and T.block(1)[0, 0] == 5.0


def _made_operators(rng):
    """Every way the package makes an operator, as (name, operator) pairs."""
    alg = AlgebraSpec(dims=(3, 4, 2), tail="none")
    T = random_block_operator(alg, rng)
    X = disconnect_rr0(T, 0.1).X
    return [("random", T), ("cert.X", X), ("T + X", T + X), ("T - X", T - X),
            ("X + T", X + T), ("X - T", X - T), ("T @ X", T @ X), ("2j T", 2j * T),
            ("-T", -T), ("T*", T.adjoint()), ("I", identity_like(T)),
            ("0", zero_like(T)), ("Z", central_projection(T, [1])),
            ("P", random_projection(alg, (1, 2, 0), rng).base),
            ("json", operator_from_dict(operator_to_dict(T)))]


def test_every_made_block_is_read_only_complex(rng):
    for name, op in _made_operators(rng):
        for sid, b in op.summands:
            assert b.dtype == np.complex128, (name, sid)
            assert not b.flags.writeable, (name, sid)
            with pytest.raises(ValueError):
                b[0, 0] = 1.0


def test_sum_with_perturbation_keeps_untouched_blocks(rng):
    T = random_block_operator(AlgebraSpec(dims=(3, 4, 2), tail="none"), rng)
    cert = disconnect_rr0(T, 0.1)
    X = cert.X
    for S in (T + X, T - X):
        for sid, b in S.summands:
            if sid == cert.summand:
                assert not np.shares_memory(b, T.block(sid))
                assert not np.shares_memory(b, X.block(sid))
            else:
                assert b is T.block(sid)
    # a zero left operand still computes: 0 + t and 0 - t are new blocks
    for S, sign in ((X + T, 1.0), (X - T, -1.0)):
        for sid, b in S.summands:
            assert b is not T.block(sid) and b is not X.block(sid)
            np.testing.assert_array_equal(b, X.block(sid) + sign * T.block(sid))


def test_arithmetic_matches_copy_reference_on_rr0_corpus():
    """On the criterion-4 generator's first operators, every arithmetic
    result equals the blockwise NumPy expression, copied."""
    rng = rng_from_seed((20260814, 4))
    for i in range(12):
        dims = tuple(int(d) for d in rng.integers(2, 65, int(rng.integers(2, 5))))
        T = random_block_operator(AlgebraSpec(dims=dims, tail="none"), rng)
        X = disconnect_rr0(T, (1e-1, 1e-2, 1e-3)[i % 3]).X
        for A, B in ((T, X), (X, T), (T, T)):
            for op, ref in ((A + B, np.add), (A - B, np.subtract), (A @ B, np.matmul)):
                for (_, got), (_, a), (_, b) in zip(op.summands, A.summands, B.summands):
                    assert np.array_equal(got, np.array(ref(a, b)))
            for op, ref in ((-A, lambda a: -1.0 * a), (A.adjoint(), lambda a: a.conj().T)):
                for (_, got), (_, a) in zip(op.summands, A.summands):
                    assert np.array_equal(got, np.array(ref(a)))


def test_reused_block_keeps_a_negative_zero():
    """The one bitwise difference from computing every block: T + 0 is T's
    block itself, so a -0.0 entry of T stays -0.0 where -0.0 + 0.0 gives
    +0.0.  T - 0 is bitwise T either way, and 0 + T computes."""
    T = block_operator([(0, [[-0.0, 1.0], [2.0, 3.0]])])
    Z = zero_like(T)
    assert np.signbit((T + Z).block(0)[0, 0].real)
    assert not np.signbit((T.block(0) + Z.block(0))[0, 0].real)
    assert np.signbit((T - Z).block(0)[0, 0].real)
    assert not np.signbit((Z + T).block(0)[0, 0].real)


def test_sum_with_perturbation_allocates_only_the_touched_block():
    """T + X allocates X's one nonzero block; copying every block (and
    copying again on construction) would take over 3 blocks' bytes here."""
    T = random_block_operator(AlgebraSpec(dims=(48, 48, 48), tail="none"),
                              rng_from_seed(3))
    X = disconnect_rr0(T, 0.1).X
    assert traced_peak(lambda: T + X) <= 2 * 48 * 48 * 16


def test_summand_validation():
    with pytest.raises(ShapeMismatch):
        BlockOperator(())
    with pytest.raises(ShapeMismatch):
        block_operator([(1, np.eye(2)), (0, np.eye(2))])   # ids must increase
    with pytest.raises(ShapeMismatch):
        block_operator([(0, np.zeros((2, 3)))])            # square only
    with pytest.raises(ShapeMismatch):
        block_operator([(-1, np.eye(2))])
    with pytest.raises(ShapeMismatch, match="dimension"):
        block_operator([(0, np.zeros((0, 0)))])
    with pytest.raises(ShapeMismatch, match="no summand with id 7"):
        block_operator([(0, np.eye(2))]).block(7)


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


_P2 = Projection(((0, np.eye(2)),))
_NET = counterexample_operator(3)


@pytest.mark.parametrize("make, error", [
    (lambda: block_operator([(1.7, np.eye(2))]), ShapeMismatch),
    (lambda: Projection(((0.5, np.eye(2)),)), ShapeMismatch),
    (lambda: AlgebraSpec((2.5,)), ShapeMismatch),
    (lambda: AlgebraSpec((True,)), ShapeMismatch),
    (lambda: random_subprojection(_P2, (1.5,), rng_from_seed(0)), ValueError),
    (lambda: random_projection(AlgebraSpec((2,)), (1.5,), rng_from_seed(0)), ValueError),
    (lambda: counterexample_operator(2.5), ValueError),
    (lambda: counterexample_net(2.5), ValueError),
    (lambda: counterexample_net(True), ValueError),
    (lambda: counterexample_net(0), ValueError),
    (lambda: counterexample_net(np.float64(3)), ValueError),
    (lambda: verify_counterexample(*_NET, trials=2.5), ValueError),
    (lambda: verify_counterexample(*_NET, trials=True), ValueError),
    (lambda: shift_example(2.0), ValueError),
], ids=["summand-id", "projection-id", "dims", "bool-dims", "subprojection-rank",
        "projection-rank", "K", "net-K", "bool-net-K", "zero-net-K", "float64-net-K",
        "trials", "bool-trials", "N"])
def test_whole_numbers_are_checked_not_truncated(make, error):
    # a fraction or a bool where a count belongs raises the module's own
    # error type, not a bare TypeError, and is never truncated
    with pytest.raises(error, match="integer"):
        make()


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


def _same_bits(A, B) -> bool:
    return A.structure() == B.structure() and all(
        a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(A.summands, B.summands))


RANK_ONE_STRUCTURE = ((0, 2), (3, 4), (5, 1))


def _rank_one_vectors(rng):
    return [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(2)]


def test_rank_one_file_reads_as_the_dense_operator(tmp_path, rng):
    a, b = _rank_one_vectors(rng)
    path = tmp_path / "rank_one.json"
    dump(_rank_one_to_dict(RANK_ONE_STRUCTURE, 3, a, b), path)
    want = block_operator([(0, np.zeros((2, 2))), (3, np.outer(a, b.conj())),
                           (5, np.zeros((1, 1)))])
    assert _same_bits(read_operator(path), want)
    # written as the vectors, not their product
    assert "re" not in json.loads(path.read_text())["summands"][1]


def test_rank_one_vectors_must_fit_their_summand(rng):
    d = jsonable(_rank_one_to_dict(RANK_ONE_STRUCTURE, 3, *_rank_one_vectors(rng)))
    for side in ("left", "right"):
        short = {"re": d["rank_one"][side]["re"][:3], "im": d["rank_one"][side]["im"][:3]}
        with pytest.raises(ShapeMismatch, match=f"rank_one {side}"):
            operator_from_dict({**d, "rank_one": {**d["rank_one"], side: short}})
    for sid in (1, 7):
        with pytest.raises(ShapeMismatch, match="not among the summands"):
            operator_from_dict({**d, "rank_one": {**d["rank_one"], "id": sid}})


def test_rank_one_vector_with_an_infinite_imaginary_part_round_trips(tmp_path, rng):
    a, b = _rank_one_vectors(rng)
    a.imag[1] = np.inf
    a.imag[2] = -np.inf
    path = tmp_path / "rank_one.json"
    dump(_rank_one_to_dict(RANK_ONE_STRUCTURE, 3, a, b), path)
    left = json.loads(path.read_text())["rank_one"]["left"]
    assert left["im"][1:3] == ["inf", "-inf"] and left["re"] == a.real.tolist()
    with np.errstate(invalid="ignore"):
        assert _same_bits(read_operator(path), _rank_one(RANK_ONE_STRUCTURE, 3, a, b))


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
