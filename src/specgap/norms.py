"""Weighted unitarily invariant norms on block algebras.

A norm here is: a classical base norm on each summand (operator norm,
Schatten-p, or Ky Fan-k), a positive weight per summand, and an aggregation
across summands (sup or an lq sum).  Every such norm is unitarily invariant
blockwise, dominates a multiple of the operator norm, and its sup-inf
constant over projections has a closed form in this atomic model:

* ``f_phi(P)`` — the infimum of the norm over nonzero subprojections of
  ``P`` — equals the smallest weight among the summands ``P`` touches,
  attained by a rank-one projection there (all three base norms give a
  rank-one projection the value 1).
* ``c_phi`` — the supremum of ``f_phi`` over nonzero central projections —
  equals the supremum of the weights, and is infinite exactly when the tail
  weight class is divergent.

Norms over an infinite tail need a tail weight class: ``bounded(c)`` tails
evaluate as the constant weight ``c``; ``divergent`` tails keep doubling
the last realized weight (the concrete unbounded family used throughout).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._jsonio import dump, jsonable, read
from .algebra import (AlgebraSpec, BlockOperator, Projection, _pow2_exponent,
                      minimal_subprojection)
from .errors import (
    NoConvergenceCertificate,
    ShapeMismatch,
    ZeroProjection,
)
from .sampling import _haar_pair, rng_from_seed

__all__ = [
    "BaseNorm",
    "NormSpec",
    "operator_norm_spec",
    "phi_eval",
    "phi_rank_one",
    "f_phi",
    "FPhiResult",
    "c_phi",
    "spec_c_phi",
    "spec_identity_infimum",
    "dominating_check",
    "check_unitary_invariance",
    "norm_to_dict",
    "norm_from_dict",
    "read_norm_spec",
    "write_norm_spec",
]


def _refuse_bools(*values):
    if any(isinstance(v, (bool, np.bool_)) for v in values):   # would be written as true
        raise ShapeMismatch(f"norm parameters are numbers, not bools: got {values!r}")


@dataclass(frozen=True)
class BaseNorm:
    """One summand's base norm: ``operator``, ``schatten(p)`` or ``kyfan(k)``."""

    kind: str
    p: float = None
    k: int = None

    def __post_init__(self):
        _refuse_bools(self.p, self.k)
        if self.kind == "schatten":
            if self.p is None or not self.p >= 1:    # NaN fails too; +inf passes
                raise ShapeMismatch(f"schatten base needs p >= 1 (or inf), got {self.p!r}")
        elif self.kind == "kyfan":
            if self.k is None or not (self.k >= 1 and float(self.k).is_integer()):
                raise ShapeMismatch(f"kyfan base needs a whole k >= 1, got {self.k!r}")
            object.__setattr__(self, "k", int(self.k))
        elif self.kind != "operator":
            raise ShapeMismatch(f"unknown base norm kind {self.kind!r}")

    def of_singular_values(self, s: np.ndarray) -> float:
        if self.kind == "operator" or (self.kind == "schatten" and math.isinf(self.p)):
            return float(s[0]) if len(s) else 0.0
        if self.kind == "schatten":
            return float(np.sum(s ** self.p) ** (1.0 / self.p))
        return float(np.sum(s[: self.k]))

    def of_matrix(self, block: np.ndarray) -> float:
        if not block.any():     # all three kinds give exactly 0.0; NaN is "any"
            return 0.0
        s = np.linalg.svd(block, compute_uv=False)
        return self.of_singular_values(s)


OPERATOR = BaseNorm("operator")


@dataclass(frozen=True)
class NormSpec:
    """A weighted, aggregated, unitarily invariant norm.

    Parameters
    ----------
    base : tuple of BaseNorm, one per realized summand
    weights : tuple of finite positive floats, same length
    agg : "sup" or "lq"
    q : finite exponent >= 1, required when ``agg == "lq"`` (l-infinity
        aggregation is ``"sup"``)
    tail_weights : "none", "divergent", or "bounded"
    tail_sup : the finite positive tail weight, required when bounded

    lq aggregation over a divergent tail is refused: there is no convergence
    certificate for the induced weight series.  A bounded tail is accepted
    (every evaluable element is finitely supported).
    """

    base: tuple
    weights: tuple
    agg: str = "sup"
    q: float = None
    tail_weights: str = "none"
    tail_sup: float = None

    def __post_init__(self):
        base = tuple(self.base)
        _refuse_bools(self.q, self.tail_sup, *self.weights)
        weights = tuple(float(w) for w in self.weights)
        if len(base) != len(weights) or not base:
            raise ShapeMismatch("base and weights must be nonempty, equal-length")
        if any(not isinstance(b, BaseNorm) for b in base):
            raise ShapeMismatch("base entries must be BaseNorm instances")
        if not all(0.0 < w < math.inf for w in weights):
            raise ShapeMismatch(f"weights must be finite and positive, got {weights}")
        if self.agg not in ("sup", "lq"):
            raise ShapeMismatch(f"unknown aggregation {self.agg!r}")
        if self.agg == "lq" and (self.q is None or not 1 <= self.q < math.inf):
            raise ShapeMismatch(f"lq aggregation needs a finite q >= 1, got {self.q!r}")
        if self.tail_weights not in ("none", "divergent", "bounded"):
            raise ShapeMismatch(f"unknown tail weight class {self.tail_weights!r}")
        if self.tail_weights == "bounded" and (self.tail_sup is None
                                               or not 0 < self.tail_sup < math.inf):
            raise ShapeMismatch(f"bounded tail needs a finite positive tail_sup, "
                                f"got {self.tail_sup!r}")
        if self.tail_weights == "divergent" and self.agg == "lq":
            raise NoConvergenceCertificate(
                "lq aggregation over a divergent tail has no convergence certificate")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "weights", weights)

    @property
    def n_realized(self) -> int:
        return len(self.weights)

    def weight_of(self, sid: int) -> float:
        if 0 <= sid < len(self.weights):
            return self.weights[sid]
        if sid >= len(self.weights):
            if self.tail_weights == "bounded":
                return float(self.tail_sup)
            if self.tail_weights == "divergent":
                # doubling continuation of the last realized weight
                return self.weights[-1] * 2.0 ** (sid - len(self.weights) + 1)
        raise ShapeMismatch(f"summand {sid} outside the norm's {len(self.weights)} "
                            f"realized summands (tail_weights={self.tail_weights!r})")

    def base_of(self, sid: int) -> BaseNorm:
        if 0 <= sid < len(self.base):
            return self.base[sid]
        if sid >= len(self.base) and self.tail_weights != "none":
            return self.base[-1]
        raise ShapeMismatch(f"summand {sid} outside the norm's realized summands")

    def check_against(self, alg: AlgebraSpec):
        if self.n_realized != alg.n_realized:
            raise ShapeMismatch(f"norm has {self.n_realized} summands, "
                                f"algebra has {alg.n_realized}")
        if (self.tail_weights == "none") != (alg.tail == "none"):
            raise ShapeMismatch("norm tail class and algebra tail disagree")


def operator_norm_spec(n_summands: int) -> NormSpec:
    """Plain operator norm: unit weights, operator base, sup aggregation."""
    return NormSpec(base=(OPERATOR,) * n_summands, weights=(1.0,) * n_summands,
                    agg="sup")


def phi_eval(spec: NormSpec, X: BlockOperator) -> float:
    """Evaluate the norm on a (finitely supported) element.

    Raises :class:`~specgap.errors.ShapeMismatch` when ``X`` touches summands
    the spec cannot weight, i.e. when ``X`` falls outside the evaluable ideal.
    """
    terms = []
    for sid, block in X.summands:
        w = spec.weight_of(sid)
        v = spec.base_of(sid).of_matrix(block)
        terms.append(w * v)
    return _aggregate(spec, terms)


def phi_rank_one(spec: NormSpec, structure, k: int, a: np.ndarray,
                 b: np.ndarray) -> float:
    """:func:`phi_eval` of the rank-one ``a b*`` in summand ``k`` (zero on the
    other summands of ``structure``, given as ``(id, dim)`` pairs), in closed
    form: ``w_k ||a|| ||b||``, because a rank-one matrix has the single
    singular value ``||a|| ||b||`` and the operator, Schatten-p and Ky Fan-k
    norms all equal it.  Raises :class:`~specgap.errors.ShapeMismatch` on the
    same structures as :func:`phi_eval`.
    """
    s1 = _vector_norm(a) * _vector_norm(b)
    terms = []
    for sid, _ in structure:
        w = spec.weight_of(sid)
        spec.base_of(sid)   # raises ShapeMismatch where phi_eval would
        terms.append(w * s1 if sid == k else 0.0)
    return _aggregate(spec, terms)


def _vector_norm(a: np.ndarray) -> float:
    """``np.linalg.norm(a)`` of ``a`` scaled by a power of two to a largest
    entry in [1/2, 1), so that no square overflows (as for entries above
    about 1e154) or underflows.  The scaling is exact, so the value is
    NumPy's bit for bit wherever NumPy's squares stay normal."""
    e = _pow2_exponent(float(np.abs(a).max(initial=0.0)))
    return float(np.ldexp(np.linalg.norm(a * math.ldexp(1.0, -e)), e))


def _aggregate(spec: NormSpec, terms) -> float:
    """Combine the weighted per-summand norms by the spec's sup or lq rule."""
    if spec.agg == "sup":
        return max(terms)
    return float(np.sum(np.asarray(terms) ** spec.q) ** (1.0 / spec.q))


FPhiResult = namedtuple("FPhiResult", ["value", "witness", "summand"])


def f_phi(spec: NormSpec, P: Projection) -> FPhiResult:
    """Infimum of the norm over nonzero subprojections of ``P``, with witness.

    Closed form for this model: the minimum weight over the summands in the
    central support of ``P`` (a rank-one projection in the minimizing summand
    has base norm exactly 1 under all three base kinds, so it attains the
    bound; any nonzero subprojection is supported somewhere, so it cannot do
    better).  Only depends on ``P`` through its central support.
    """
    if P.rank == 0:
        raise ZeroProjection("f_phi of the zero projection is undefined")
    supported = P.support
    weights = [spec.weight_of(sid) for sid in supported]
    best = int(np.argmin(weights))
    sid = supported[best]
    witness = minimal_subprojection(P, sid)
    return FPhiResult(value=float(weights[best]), witness=witness, summand=sid)


def c_phi(spec: NormSpec, alg: AlgebraSpec) -> float:
    """Supremum of ``f_phi`` over nonzero central projections.

    Equals the supremum of the summand weights; ``math.inf`` exactly when the
    tail weight class is divergent.
    """
    spec.check_against(alg)
    return spec_c_phi(spec)


def spec_c_phi(spec: NormSpec) -> float:
    """:func:`c_phi` read off the spec alone, for a spec already known to fit
    its algebra (then the algebra has a tail exactly when the spec does)."""
    if spec.tail_weights == "divergent":
        return math.inf
    top = max(spec.weights)
    if spec.tail_weights == "bounded":
        top = max(top, float(spec.tail_sup))
    return float(top)


def spec_identity_infimum(spec: NormSpec) -> float:
    """``f_phi`` of the identity without materializing it: the infimum of all
    summand weights, including the tail family (same proviso as
    :func:`spec_c_phi`)."""
    bottom = min(spec.weights)
    if spec.tail_weights == "bounded":
        bottom = min(bottom, float(spec.tail_sup))
    elif spec.tail_weights == "divergent":
        # increasing: the first tail weight is the infimum of the tail
        bottom = min(bottom, spec.weight_of(spec.n_realized))
    return float(bottom)


def dominating_check(spec: NormSpec, alg: AlgebraSpec) -> bool:
    """True when the norm dominates the operator norm on its ideal.

    Equivalent to ``f_phi(identity) >= 1``: with unit-normalized operator
    norm this is exactly the condition for ``||X|| <= phi(X)``.
    """
    spec.check_against(alg)
    return spec_identity_infimum(spec) >= 1.0


def check_unitary_invariance(phi, X: BlockOperator, trials: int = 20,
                             seed: int = 0) -> float:
    """Max relative deviation |phi(UXV) - phi(X)| over Haar blockwise unitaries.

    ``phi`` is a :class:`NormSpec` or any callable on block operators; the
    callable form exists so that a deliberately broken (non-invariant) norm
    can be probed with the same machinery.
    """
    fn = (lambda Y: phi_eval(phi, Y)) if isinstance(phi, NormSpec) else phi
    ref = fn(X)
    scale = max(abs(ref), 1e-300)
    rng = rng_from_seed(seed)
    worst = 0.0
    for _ in range(trials):
        U, V = _haar_pair(X, rng)
        worst = max(worst, abs(fn(U @ X @ V) - ref) / scale)
    return worst


# -- JSON persistence, written by _jsonio ----------------------------------

# Schema: {"base": [{"kind": "schatten", "p": 2 | "inf"}, ...], "weights": [...],
#          "agg": "sup" | {"kind": "lq", "q": 2.0},
#          "tail_weights": "none" | "divergent" | {"kind": "bounded", "sup": c}}


def norm_to_dict(spec: NormSpec) -> dict:
    base = []
    for b in spec.base:
        if b.kind == "operator":
            base.append({"kind": "operator"})
        elif b.kind == "schatten":
            base.append({"kind": "schatten", "p": b.p})
        else:
            base.append({"kind": "kyfan", "k": b.k})
    agg = "sup" if spec.agg == "sup" else {"kind": "lq", "q": spec.q}
    if spec.tail_weights == "bounded":
        tail = {"kind": "bounded", "sup": spec.tail_sup}
    else:
        tail = spec.tail_weights
    return jsonable({"base": base, "weights": spec.weights, "agg": agg,
                     "tail_weights": tail})


def norm_from_dict(data: dict) -> NormSpec:
    base = []
    for item in data["base"]:
        kind = item["kind"]
        if kind == "operator":
            base.append(OPERATOR)
        elif kind == "schatten":
            base.append(BaseNorm("schatten", p=float(item["p"])))
        elif kind == "kyfan":
            base.append(BaseNorm("kyfan", k=item["k"]))
        else:
            raise ShapeMismatch(f"unknown base norm kind {kind!r}")
    agg = data.get("agg", "sup")
    if agg == "sup":
        agg_kind, q = "sup", None
    else:
        agg_kind, q = "lq", float(agg["q"])
    tail = data.get("tail_weights", "none")
    if isinstance(tail, dict):
        tail_kind, tail_sup = "bounded", float(tail["sup"])
    else:
        tail_kind, tail_sup = tail, None
    return NormSpec(base=tuple(base), weights=tuple(data["weights"]),
                    agg=agg_kind, q=q, tail_weights=tail_kind, tail_sup=tail_sup)


def write_norm_spec(spec: NormSpec, path):
    dump(norm_to_dict(spec), path)


def read_norm_spec(path) -> NormSpec:
    return read(path, norm_from_dict)
