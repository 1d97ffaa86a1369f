"""Block-diagonal operator model.

Operators live in a direct sum of full matrix algebras: an element is a
finite list of square complex blocks, one per *summand*, indexed by a
non-negative summand id.  :class:`AlgebraSpec` records the shape of the
ambient algebra (the summand dimensions, optionally continued by infinitely
many copies of the last one), which the closed forms in ``norms`` read.

All values are immutable after construction, and every operation returns a
new object.  Block arrays are read-only, and an array is copied only when it
comes from outside the package: the public constructors copy whatever a
caller hands them, while the blocks the package makes itself (arithmetic
results, identities, zeros, blocks read from a file) are complex128 arrays
that no one else holds, marked read-only in place.  So results may share
blocks: in ``T + X`` and ``T - X`` a block where ``X`` is exactly zero is
``T``'s own block object, bitwise ``T``'s entries (a ``-0.0`` entry keeps its
sign where computing ``a + 0`` would give ``+0.0``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._jsonio import dump, read
from .errors import (
    EmptyBlock,
    NotAProjection,
    ShapeMismatch,
)

__all__ = [
    "BlockOperator",
    "AlgebraSpec",
    "Projection",
    "block_operator",
    "identity_like",
    "zero_like",
    "central_projection",
    "validate_projection",
    "minimal_subprojection",
    "read_operator",
    "write_operator",
    "operator_to_dict",
    "operator_from_dict",
]

DEFAULT_TOL = 1e-9


def _is_count(v, least: int) -> bool:
    """Whether v is an integer (NumPy's too, but not a bool) >= least."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= least


def _checked_summands(pairs, copy: bool) -> tuple:
    """``(id, block)`` pairs with ids strictly increasing from >= 0 and each
    block a square complex128 array, at least 1 x 1 and read-only.  With
    ``copy`` each array is copied, so later writes to the caller's array
    cannot reach the block; without it, complex128 arrays are used as they
    are."""
    out = []
    last = -1
    for sid, arr in pairs:
        if not _is_count(sid, 0):
            raise ShapeMismatch(f"summand ids must be integers >= 0, got {sid!r}")
        sid = int(sid)
        if sid <= last:
            raise ShapeMismatch("summand ids must be strictly increasing")
        last = sid
        block = (np.array(arr, dtype=np.complex128, copy=True) if copy
                 else np.asarray(arr, dtype=np.complex128))
        if block.ndim != 2 or block.shape[0] != block.shape[1]:
            raise ShapeMismatch(f"blocks must be square 2-d arrays, got shape {block.shape}")
        if block.shape[0] < 1:
            raise ShapeMismatch("blocks must have dimension >= 1")
        block.setflags(write=False)
        out.append((sid, block))
    if not out:
        raise ShapeMismatch("a block operator needs at least one summand")
    return tuple(out)


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
        object.__setattr__(self, "summands", _checked_summands(self.summands, copy=True))

    @staticmethod
    def _from_owned(pairs) -> "BlockOperator":
        """The package's own constructor, for blocks it just made and holds
        no other reference to: checked as the public constructor checks
        them, marked read-only in place and not copied."""
        op = object.__new__(BlockOperator)
        object.__setattr__(op, "summands", _checked_summands(pairs, copy=False))
        return op

    # -- structure ------------------------------------------------------

    # read off structure(), which FactoredIdempotent answers from its factors
    @property
    def ids(self) -> tuple:
        return tuple(sid for sid, _ in self.structure())

    @property
    def dims(self) -> tuple:
        return tuple(n for _, n in self.structure())

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

    # a block where the right operand is exactly zero is the left operand's
    # own (read-only) block: T + X keeps T's blocks outside X's summand

    def __add__(self, other):
        self._require_same_structure(other)
        return BlockOperator._from_owned(
            (sid, a if not b.any() else a + b)
            for (sid, a), (_, b) in zip(self.summands, other.summands))

    def __sub__(self, other):
        self._require_same_structure(other)
        return BlockOperator._from_owned(
            (sid, a if not b.any() else a - b)
            for (sid, a), (_, b) in zip(self.summands, other.summands))

    def __matmul__(self, other):
        self._require_same_structure(other)
        return BlockOperator._from_owned(
            (sid, a @ b) for (sid, a), (_, b) in zip(self.summands, other.summands))

    def __mul__(self, scalar):
        z = complex(scalar)
        return BlockOperator._from_owned((sid, z * b) for sid, b in self.summands)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def adjoint(self) -> "BlockOperator":
        return BlockOperator._from_owned((sid, b.conj().T) for sid, b in self.summands)

    def norm(self) -> float:
        """Operator norm: the largest spectral norm over the blocks."""
        return max(np.linalg.norm(b, 2) for _, b in self.summands)

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return all(np.abs(b).max() <= tol for _, b in self.summands)


def block_operator(pairs: Iterable) -> BlockOperator:
    """Build a :class:`BlockOperator` from ``(id, matrix)`` pairs."""
    return BlockOperator(tuple(pairs))


def identity_like(op: BlockOperator) -> BlockOperator:
    return BlockOperator._from_owned(
        (sid, np.eye(n, dtype=np.complex128)) for sid, n in op.structure())


def zero_like(op: BlockOperator) -> BlockOperator:
    return BlockOperator._from_owned(
        (sid, np.zeros((n, n), dtype=np.complex128)) for sid, n in op.structure())


def central_projection(template: BlockOperator, mask: Iterable) -> BlockOperator:
    """Identity on the summands in ``mask``, zero on the rest of ``template``."""
    keep = set(int(m) for m in mask)
    return BlockOperator._from_owned(
        (sid, np.eye(n, dtype=np.complex128) if sid in keep
         else np.zeros((n, n), dtype=np.complex128))
        for sid, n in template.structure())


# -- algebra descriptor ----------------------------------------------------


@dataclass(frozen=True)
class AlgebraSpec:
    """Shape of the ambient algebra: realized summand dims plus optional tail.

    ``tail="repeat_last"`` declares infinitely many further summands, all of
    the last listed dimension; the norm closed forms check a spec against it.
    """

    dims: tuple
    tail: str = "none"

    def __post_init__(self):
        # a decimal string reads as the integer it spells; nothing is truncated
        dims = tuple(int(d) if isinstance(d, str) and d.isdecimal() else d for d in self.dims)
        if not dims or not all(_is_count(d, 1) for d in dims):
            raise ShapeMismatch(f"algebra needs summands of integer dimension >= 1, got {dims!r}")
        if self.tail not in ("none", "repeat_last"):
            raise ShapeMismatch(f"unknown tail kind {self.tail!r}")
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))

    @property
    def n_realized(self) -> int:
        return len(self.dims)


# -- projections ---------------------------------------------------------


@dataclass(frozen=True)
class Projection:
    """An orthogonal projection, held as one factor per summand.

    ``factors`` holds ``(id, W)`` pairs, ``W`` an ``n x r`` matrix with
    orthonormal columns, so the block is ``W W*`` of rank ``r``.  The
    constructor is the one check of that invariant: ``||W* W - I_r||_F <=
    DEFAULT_TOL`` or :class:`NotAProjection`, and ``r <= n`` or
    :class:`ShapeMismatch`.  ``base`` builds the dense blocks on access.
    """

    factors: tuple = ()

    def __post_init__(self):
        pairs = []
        for sid, w in self.factors:
            if not _is_count(sid, 0):
                raise ShapeMismatch(f"summand ids must be integers >= 0, got {sid!r}")
            w = np.array(w, dtype=np.complex128, copy=True)
            if w.ndim != 2 or w.shape[1] > w.shape[0]:
                raise ShapeMismatch(f"summand {sid}: factor {w.shape} not n x r, r <= n")
            g = w.conj().T @ w - np.eye(w.shape[1])
            res = float(np.sqrt(np.vdot(g, g).real))
            if not res <= DEFAULT_TOL:     # NaN fails too
                raise NotAProjection(f"summand {sid}: ||W*W - I||_F = {res:.3e} "
                                     f"exceeds tol={DEFAULT_TOL:.3e}", residual=res)
            w.setflags(write=False)
            pairs.append((int(sid), w))
        object.__setattr__(self, "factors", tuple(pairs))

    @property
    def base(self) -> BlockOperator:
        return BlockOperator._from_owned((sid, w @ w.conj().T) for sid, w in self.factors)

    @property
    def ranks(self) -> tuple:
        return tuple(w.shape[1] for _, w in self.factors)

    @property
    def rank(self) -> int:
        return sum(self.ranks)

    @property
    def support(self) -> tuple:
        return tuple(sid for sid, w in self.factors if w.shape[1] > 0)


def validate_projection(A: BlockOperator) -> Projection:
    """Check blockwise that dense ``A`` is an orthogonal projection.

    Requires finite entries, ``||A - A*|| <= DEFAULT_TOL`` and ``||A@A - A||
    <= DEFAULT_TOL`` on every block; raises :class:`NotAProjection` carrying
    the worst residual otherwise (``inf`` for a non-finite entry).  Each
    block's factor is the eigenvectors of its symmetrized part with
    eigenvalue above 1/2 (the eigenvalues sit within ``DEFAULT_TOL`` of
    {0, 1}, so the cut is unambiguous).
    """
    factors = []
    for sid, b in A.summands:
        if not np.isfinite(b).all():
            raise NotAProjection(f"summand {sid} has a non-finite entry", residual=np.inf)
        herm = np.linalg.norm(b - b.conj().T, 2)
        idem = np.linalg.norm(b @ b - b, 2)
        if herm > DEFAULT_TOL or idem > DEFAULT_TOL:
            raise NotAProjection(
                f"summand {sid}: ||P-P*||={herm:.3e}, ||P@P-P||={idem:.3e} "
                f"exceed tol={DEFAULT_TOL:.3e}", residual=max(herm, idem))
        evals, vecs = np.linalg.eigh((b + b.conj().T) / 2.0)
        factors.append((sid, vecs[:, evals > 0.5]))
    return Projection(tuple(factors))


def minimal_subprojection(P: Projection, sid: int) -> Projection:
    """Rank-one subprojection of ``P`` in summand ``sid``: the first column
    of that block's factor.  Raises :class:`EmptyBlock` if ``P`` has no
    weight in that summand.
    """
    w = dict(P.factors).get(sid)
    if w is None or w.shape[1] == 0:
        raise EmptyBlock(f"projection has no weight in summand {sid}")
    return Projection(tuple((s, f[:, :1] if s == sid else f[:, :0])
                            for s, f in P.factors))


# -- JSON persistence -----------------------------------------------------

# Schema: {"summands": [{"id": 0, "dim": 2, "re": [[..]], "im": [[..]]}, ...],
#          "tail": "none"}
# or, for a b* in summand k and zero elsewhere, the summands as {"id", "dim"}
# and "rank_one": {"id": k, "left": {"re": [..], "im": [..]}, "right": {..}}.
# Files are always written with "tail": "none"; a reader still refuses any
# value other than "none" or "repeat_last".  ``_jsonio`` writes floats
# exactly and a non-finite entry as "nan"/"inf"/"-inf", which reads back.


def _rank_one(structure, sid: int, a: np.ndarray, b: np.ndarray) -> BlockOperator:
    """``a b*`` in summand ``sid`` and zero elsewhere, all blocks complex128
    and made here, so none is copied."""
    return BlockOperator._from_owned(
        (s, np.outer(a, b.conj()) if s == sid
         else np.zeros((d, d), dtype=np.complex128))
        for s, d in structure)


def _from_parts(item: dict, shape: tuple, what: str) -> np.ndarray:
    re = np.array(item["re"], dtype=float)
    im = np.array(item["im"], dtype=float)
    if re.shape != im.shape or re.shape != shape:
        raise ShapeMismatch(f"{what}: re/im shapes do not match the declared {shape}")
    # the parts go in as they are: re + 1j * im would turn an infinite
    # imaginary part's real part into 0 * inf = NaN
    z = np.empty(re.shape, dtype=np.complex128)
    z.real = re
    z.imag = im
    return z


def operator_to_dict(op: BlockOperator) -> dict:
    return {"summands": [{"id": sid, "dim": b.shape[0], "re": b.real, "im": b.imag}
                         for sid, b in op.summands], "tail": "none"}


def _rank_one_to_dict(structure, sid: int, a: np.ndarray, b: np.ndarray) -> dict:
    return {"summands": [{"id": s, "dim": d} for s, d in structure], "tail": "none",
            "rank_one": {"id": sid, "left": {"re": a.real, "im": a.imag},
                         "right": {"re": b.real, "im": b.imag}}}


def operator_from_dict(data: dict) -> BlockOperator:
    if data.get("tail", "none") not in ("none", "repeat_last"):
        raise ShapeMismatch(f"unknown tail kind {data['tail']!r}")
    structure = tuple((item["id"], item["dim"]) for item in data["summands"])
    if "rank_one" not in data:
        return BlockOperator._from_owned(
            (s, _from_parts(item, (d, d), f"summand {s}"))
            for (s, d), item in zip(structure, data["summands"]))
    sid = data["rank_one"]["id"]
    dim = dict(structure).get(sid)
    if dim is None:
        raise ShapeMismatch(f"rank_one summand {sid} is not among the summands")
    a, b = (_from_parts(data["rank_one"][side], (dim,), f"rank_one {side}")
            for side in ("left", "right"))
    return _rank_one(structure, sid, a, b)


def write_operator(op: BlockOperator, path):
    dump(operator_to_dict(op), path)


def read_operator(path) -> BlockOperator:
    return read(path, operator_from_dict)
