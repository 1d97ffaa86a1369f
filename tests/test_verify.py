import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from specgap import algebra, norms, sampling, verify
from specgap.algebra import AlgebraSpec
from specgap.verify import (SUITES, CheckResult, fphi_oracle, norm_axioms,
                            normspec_battery, projection_bound, run_suites)

from conftest import make_spec


def _small_oracles(monkeypatch):
    """Shrink the oracles' sample counts so that a test runs them quickly."""
    for name in ("_FPHI_PROJECTIONS", "_FPHI_SUBS", "_PROJECTION_N"):
        monkeypatch.setattr(verify, name, 5)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    # at the seed verify-suite gives it
    result = run_suites([name]).results[0]
    assert result.passed, (name, result.worst, result.detail)


@pytest.mark.parametrize("suite, name, field", [
    ("disconnect_batch", "disconnect", "phi_X"),      # phi_eval(X) re-measures it
    ("rr0_batch", "disconnect_rr0", "phi_X"),
    ("rr0_batch", "disconnect_rr0", "eps0")])         # eps0 != eps / 2
def test_disconnect_suites_check_each_certificate(monkeypatch, suite, name, field):
    # a certificate that understates a field fails its suite, though its
    # phi_X / eps, the reported worst, stays below 1
    run = getattr(verify, name)

    def misstated(*args):
        cert = run(*args)
        return dataclasses.replace(cert, **{field: getattr(cert, field) * 0.999})

    monkeypatch.setattr(verify, name, misstated)
    result = getattr(verify, suite)()
    assert not result.passed and result.worst < 1.0


@pytest.mark.parametrize("suite, name, failing", [
    ("riesz_batch", "verify_idempotent", {"rank": 0}),          # rank < 1
    ("uppertri_batch", "ut_inclusion_check", {"tol": -1.0})])   # matched > tol
def test_riesz_and_uppertri_suites_fail_on_a_failing_report(monkeypatch, suite, name,
                                                             failing):
    check = getattr(verify, name)
    monkeypatch.setattr(verify, name,
                        lambda *a, **k: dataclasses.replace(check(*a, **k), **failing))
    assert not getattr(verify, suite)().passed


def test_run_suites_selection_and_report():
    rep = run_suites(["uppertri", "riesz"], seed=1)
    assert rep.all_passed and len(rep.results) == 2
    d = rep.to_dict()
    json.dumps(d)                       # JSON-safe, including any inf/nan
    assert d["all_passed"] is True
    with pytest.raises(KeyError):
        run_suites(["no-such-suite"])


@pytest.mark.parametrize("seed", [7, 20260814])
def test_a_suite_depends_only_on_its_name_and_seed(monkeypatch, seed):
    """Each suite reports the same alone, in any order, or among all."""
    _small_oracles(monkeypatch)
    battery = verify.norm_axiom_battery
    monkeypatch.setattr(verify, "norm_axiom_battery",
                        lambda n_total, seed: battery(n_total=40, seed=seed))
    every = run_suites(None, seed).to_dict()["suites"]
    assert [r["name"] for r in every] == list(SUITES)
    for name, want in zip(SUITES, every):
        assert run_suites([name], seed).to_dict()["suites"] == [want], name
    assert run_suites(list(SUITES)[::-1], seed).to_dict()["suites"] == every[::-1]


def test_norm_axiom_worst_is_tiny():
    alg_spec_pairs = normspec_battery()
    assert len(alg_spec_pairs) == 10
    alg, spec = alg_spec_pairs[0]
    res = norm_axioms(spec, alg, n_samples=50, seed=0)
    assert res.passed and res.worst < 1e-11


def test_unitary_invariance_probe(monkeypatch):
    """`norm_axioms` is the one unitary-invariance probe: a unitarily
    invariant norm passes it, and an entrywise functional is caught."""
    alg = AlgebraSpec((2, 3, 4), "none")
    spec = make_spec([1.0, 2.0, 1.5], kinds=[("schatten", 2, None),
                                             ("operator", None, None),
                                             ("kyfan", None, 3)])
    assert norm_axioms(spec, alg, n_samples=10).detail["unitary"] < 1e-10
    monkeypatch.setattr(verify, "phi_eval", lambda _spec, Y: float(abs(Y.block(0)[0, 0])))
    broken = norm_axioms(spec, alg, n_samples=10)
    assert not broken.passed and broken.detail["unitary"] > 1e-3


def test_oracles_are_checkresults(monkeypatch):
    _small_oracles(monkeypatch)
    for res in (fphi_oracle(seed=0), projection_bound(seed=0)):
        assert isinstance(res, CheckResult) and res.passed
        json.dumps(res.to_dict())


def test_fphi_oracle_runs_no_eigensolver_and_no_dense_validation(monkeypatch):
    # projections are drawn, mixed and cut down as factors, so no step
    # recovers a basis by eigh or re-checks a dense block
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    validate = counted("validate_projection", algebra.validate_projection)
    for mod in (algebra, norms, sampling, verify):
        monkeypatch.setattr(mod, "validate_projection", validate, raising=False)
    _small_oracles(monkeypatch)
    assert fphi_oracle().passed
    assert calls == Counter()
