import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from specgap import algebra, norms, sampling, verify
from specgap.verify import (SUITES, CheckResult, fphi_oracle, norm_axioms,
                            normspec_battery, projection_bound, run_suites)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    result = SUITES[name]((20260814, sorted(SUITES).index(name)))
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


def test_norm_axiom_worst_is_tiny():
    alg_spec_pairs = normspec_battery()
    assert len(alg_spec_pairs) == 10
    alg, spec = alg_spec_pairs[0]
    res = norm_axioms(spec, alg, n_samples=50, seed=0)
    assert res.passed and res.worst < 1e-11


def test_oracles_are_checkresults():
    for res in (fphi_oracle(n_projections=5, n_subs=5, seed=0),
                projection_bound(n=5, seed=0)):
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
    assert fphi_oracle(n_projections=5, n_subs=5).passed
    assert calls == Counter()
