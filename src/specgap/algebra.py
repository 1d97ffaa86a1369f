"""Block-diagonal operator model.

Operators live in a direct sum of full matrix algebras: an element is a
finite list of square complex blocks, one per *summand*, indexed by a
non-negative summand id.  An algebra either has exactly the listed summands
(``tail="none"``) or continues with infinitely many further copies of the
last summand dimension (``tail="repeat_last"``).  Concrete operators are
always finitely supported; tail summands beyond the realized list simply
carry zero blocks and may appear explicitly (with ids past the realized
range) when an element is supported out in the tail.

All values are immutable after construction: block arrays are copied in and
marked read-only, and every operation returns a new object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    EmptyBlock,
    NotAProjection,
    ShapeMismatch,
    ZeroProjection,
)

__all__ = [
    "BlockOperator",
    "AlgebraSpec",
    "IdealSpec",
    "Projection",
    "block_operator",
    "identity_like",
    "zero_like",
    "central_projection",
    "validate_projection",
    "central_support",
    "minimal_subprojection",
    "read_operator",
    "write_operator",
    "operator_to_dict",
    "operator_from_dict",
]

DEFAULT_TOL = 1e-9


def _as_block(arr) -> np.ndarray:
    block = np.array(arr, dtype=np.complex128, copy=True)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise ShapeMismatch(f"blocks must be square 2-d arrays, got shape {block.shape}")
    if block.shape[0] < 1:
        raise ShapeMismatch("blocks must have dimension >= 1")
    block.setflags(write=False)
    return block


@dataclass(frozen=True)
class BlockOperator:
    """An element of a direct sum of matrix algebras.

    Parameters
    ----------
    summands : sequence of (id, block) pairs
        Summand ids must be distinct non-negative integers in strictly
        increasing order; each block is a square complex matrix.
    """

    summands: tuple = ()

    def __post_init__(self):
        pairs = []
        last = -1
        for sid, arr in self.summands:
            sid = int(sid)
            if sid < 0:
                raise ShapeMismatch("summand ids must be >= 0")
            if sid <= last:
                raise ShapeMismatch("summand ids must be strictly increasing")
            last = sid
            pairs.append((sid, _as_block(arr)))
        if not pairs:
            raise ShapeMismatch("a block operator needs at least one summand")
        object.__setattr__(self, "summands", tuple(pairs))

    # -- structure ------------------------------------------------------

    @property
    def ids(self) -> tuple:
        return tuple(sid for sid, _ in self.summands)

    @property
    def dims(self) -> tuple:
        return tuple(b.shape[0] for _, b in self.summands)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def block(self, sid: int) -> np.ndarray:
        for s, b in self.summands:
            if s == sid:
                return b
        raise ShapeMismatch(f"no summand with id {sid}")

    def structure(self) -> tuple:
        return tuple((sid, b.shape[0]) for sid, b in self.summands)

    def _require_same_structure(self, other: "BlockOperator"):
        if self.structure() != other.structure():
            raise ShapeMismatch(
                f"operands have different block structure: "
                f"{self.structure()} vs {other.structure()}"
            )

    # -- arithmetic (blockwise, never mixes summands) -------------------

    def __add__(self, other):
        self._require_same_structure(other)
        return BlockOperator(tuple(
            (sid, a + other.summands[i][1])
            for i, (sid, a) in enumerate(self.summands)
        ))

    def __sub__(self, other):
        self._require_same_structure(other)
        return BlockOperator(tuple(
            (sid, a - other.summands[i][1])
            for i, (sid, a) in enumerate(self.summands)
        ))

    def __matmul__(self, other):
        self._require_same_structure(other)
        return BlockOperator(tuple(
            (sid, a @ other.summands[i][1])
            for i, (sid, a) in enumerate(self.summands)
        ))

    def __mul__(self, scalar):
        z = complex(scalar)
        return BlockOperator(tuple((sid, z * b) for sid, b in self.summands))

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def adjoint(self) -> "BlockOperator":
        return BlockOperator(tuple((sid, b.conj().T) for sid, b in self.summands))

    def norm(self) -> float:
        """Operator norm: the largest spectral norm over the blocks."""
        return max(np.linalg.norm(b, 2) for _, b in self.summands)

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return all(np.abs(b).max() <= tol for _, b in self.summands)

    def block_norms(self) -> tuple:
        return tuple(float(np.linalg.norm(b, 2)) for _, b in self.summands)


def block_operator(pairs: Iterable) -> BlockOperator:
    """Build a :class:`BlockOperator` from ``(id, matrix)`` pairs."""
    return BlockOperator(tuple(pairs))


def identity_like(op: BlockOperator) -> BlockOperator:
    return BlockOperator(tuple((sid, np.eye(b.shape[0])) for sid, b in op.summands))


def zero_like(op: BlockOperator) -> BlockOperator:
    return BlockOperator(tuple(
        (sid, np.zeros((b.shape[0], b.shape[0]))) for sid, b in op.summands
    ))


def central_projection(template: BlockOperator, mask: Iterable) -> BlockOperator:
    """Identity on the summands in ``mask``, zero on the rest of ``template``."""
    keep = set(int(m) for m in mask)
    return BlockOperator(tuple(
        (sid, np.eye(b.shape[0]) if sid in keep else np.zeros_like(b))
        for sid, b in template.summands
    ))


# -- algebra / ideal descriptors ----------------------------------------


@dataclass(frozen=True)
class AlgebraSpec:
    """Shape of the ambient algebra: realized summand dims plus optional tail.

    ``tail="repeat_last"`` declares infinitely many further summands, all of
    the last listed dimension.  Only finitely many can ever be touched by a
    concrete operator; the tail matters for norm and ideal semantics.
    """

    dims: tuple
    tail: str = "none"

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ShapeMismatch("algebra needs at least one summand of dimension >= 1")
        if self.tail not in ("none", "repeat_last"):
            raise ShapeMismatch(f"unknown tail kind {self.tail!r}")
        object.__setattr__(self, "dims", dims)

    @property
    def n_realized(self) -> int:
        return len(self.dims)

    def dim_of(self, sid: int) -> int:
        if 0 <= sid < len(self.dims):
            return self.dims[sid]
        if sid >= len(self.dims) and self.tail == "repeat_last":
            return self.dims[-1]
        raise ShapeMismatch(f"summand {sid} outside algebra with {len(self.dims)} "
                            f"summands and tail={self.tail!r}")

    def contains(self, op: BlockOperator) -> bool:
        try:
            return all(b.shape[0] == self.dim_of(sid) for sid, b in op.summands)
        except ShapeMismatch:
            return False

    def require(self, op: BlockOperator):
        if not self.contains(op):
            raise ShapeMismatch("operator does not fit the declared algebra")

    def identity(self) -> BlockOperator:
        if self.tail != "none":
            raise ShapeMismatch("identity of an infinite-tail algebra is not "
                                "finitely supported; work with the closed forms instead")
        return BlockOperator(tuple((i, np.eye(d)) for i, d in enumerate(self.dims)))


@dataclass(frozen=True)
class IdealSpec:
    """Which ideal perturbations are drawn from.

    ``full`` is the whole algebra.  ``finitely_supported`` (elements touching
    only finitely many summands) is a proper ideal only when the algebra has
    an infinite tail, and is required to pair with ``tail="repeat_last"``.
    """

    kind: str = "full"

    def __post_init__(self):
        if self.kind not in ("full", "finitely_supported"):
            raise ShapeMismatch(f"unknown ideal kind {self.kind!r}")

    def check_against(self, alg: AlgebraSpec):
        if self.kind == "finitely_supported" and alg.tail != "repeat_last":
            raise ShapeMismatch("finitely_supported ideal requires tail='repeat_last'")


# -- projections ---------------------------------------------------------


@dataclass(frozen=True)
class Projection:
    """A validated orthogonal projection; build through :func:`validate_projection`
    (or directly for ``v v*`` with a unit vector ``v``)."""

    base: BlockOperator
    tol: float = DEFAULT_TOL
    ranks: tuple = ()

    @property
    def rank(self) -> int:
        return sum(self.ranks)

    @property
    def support(self) -> tuple:
        return tuple(sid for (sid, _), r in zip(self.base.summands, self.ranks) if r > 0)

    def complement(self) -> "Projection":
        return validate_projection(identity_like(self.base) - self.base, tol=self.tol)


def validate_projection(A: BlockOperator, tol: float = DEFAULT_TOL) -> Projection:
    """Check blockwise that ``A`` is an orthogonal projection.

    Requires ``||A - A*|| <= tol`` and ``||A@A - A|| <= tol`` on every block;
    raises :class:`NotAProjection` carrying the worst residual otherwise.
    Block ranks are counted from the spectrum of the symmetrized block (the
    eigenvalues sit within ``tol`` of {0, 1}, so the count at the 1/2 cutoff
    is unambiguous).
    """
    worst = 0.0
    ranks = []
    for sid, b in A.summands:
        herm = np.linalg.norm(b - b.conj().T, 2)
        idem = np.linalg.norm(b @ b - b, 2)
        worst = max(worst, herm, idem)
        if herm > tol or idem > tol:
            raise NotAProjection(
                f"summand {sid}: ||P-P*||={herm:.3e}, ||P@P-P||={idem:.3e} "
                f"exceed tol={tol:.3e}", residual=max(herm, idem))
        evals = np.linalg.eigvalsh((b + b.conj().T) / 2.0)
        ranks.append(int(np.count_nonzero(evals > 0.5)))
    return Projection(base=A, tol=tol, ranks=tuple(ranks))


def central_support(P: Projection) -> tuple:
    """Ids of the summands where ``P`` has a nonzero block."""
    return P.support


def minimal_subprojection(P: Projection, sid: int) -> Projection:
    """Rank-one subprojection of ``P`` living entirely in summand ``sid``.

    Takes a unit eigenvector of the block with eigenvalue ~1.  Raises
    :class:`EmptyBlock` if ``P`` has no weight in that summand.
    """
    if sid not in P.base.ids:
        raise EmptyBlock(f"projection has no summand {sid}")
    idx = P.base.ids.index(sid)
    if P.ranks[idx] == 0:
        raise EmptyBlock(f"projection block {sid} is zero")
    b = P.base.block(sid)
    evals, vecs = np.linalg.eigh((b + b.conj().T) / 2.0)
    v = vecs[:, -1]           # eigenvalue closest to 1
    e = np.outer(v, v.conj())
    blocks = tuple(
        (s, e if s == sid else np.zeros_like(blk)) for s, blk in P.base.summands
    )
    return validate_projection(BlockOperator(blocks), tol=max(P.tol, 1e-12))


def require_nonzero(P: Projection):
    if P.rank == 0:
        raise ZeroProjection("projection is zero")


# -- JSON persistence -----------------------------------------------------

# Schema: {"summands": [{"id": 0, "dim": 2, "re": [[..]], "im": [[..]]}, ...],
#          "tail": "none" | "repeat_last"}
# Floats survive a round trip exactly (shortest-repr JSON encoding).


def operator_to_dict(op: BlockOperator, tail: str = "none") -> dict:
    if tail not in ("none", "repeat_last"):
        raise ShapeMismatch(f"unknown tail kind {tail!r}")
    return {
        "summands": [
            {
                "id": sid,
                "dim": int(b.shape[0]),
                "re": b.real.tolist(),
                "im": b.imag.tolist(),
            }
            for sid, b in op.summands
        ],
        "tail": tail,
    }


def operator_from_dict(data: dict):
    pairs = []
    for item in data["summands"]:
        re = np.array(item["re"], dtype=float)
        im = np.array(item["im"], dtype=float)
        if re.shape != im.shape or re.shape != (item["dim"], item["dim"]):
            raise ShapeMismatch(f"summand {item.get('id')}: re/im shapes do not "
                                f"match declared dim {item.get('dim')}")
        pairs.append((item["id"], re + 1j * im))
    tail = data.get("tail", "none")
    if tail not in ("none", "repeat_last"):
        raise ShapeMismatch(f"unknown tail kind {tail!r}")
    return BlockOperator(tuple(pairs)), tail


def write_operator(op: BlockOperator, path, tail: str = "none"):
    with open(path, "w") as fh:
        json.dump(operator_to_dict(op, tail=tail), fh, sort_keys=True,
                  separators=(",", ":"))
        fh.write("\n")


def read_operator(path):
    """Read an operator file; returns ``(BlockOperator, tail)``."""
    with open(path) as fh:
        return operator_from_dict(json.load(fh))
