"""The byte format every JSON file and CLI report shares, from one codec."""

import argparse
import json

import numpy as np
import pytest

from specgap import cli
from specgap._jsonio import dump, dumps, jsonable, load
from specgap.algebra import block_operator, read_operator, write_operator
from specgap.cfun import (CompactRealSet, PLFunction, read_pl, read_set, write_pl,
                          write_set)
from specgap.norms import read_norm_spec, write_norm_spec
from specgap.perturb import disconnect_rr0, write_certificate
from specgap.verify import CheckResult, SuiteReport

from conftest import make_spec


def _refuse(token):
    raise ValueError(f"non-strict JSON token {token}")


def _check_format(path):
    """One trailing newline, strict JSON, sorted keys, no spaces; returns the data."""
    text = path.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    data = json.loads(text, parse_constant=_refuse)
    assert text == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    assert " " not in text
    return data


def _operator():
    return block_operator([(0, [[0.5, 1.0 + 2j], [0.0, -0.25]]), (3, [[1e-300]])])


@pytest.mark.parametrize("kind", ["operator", "norm", "set", "cantor", "pl"])
def test_files_are_canonical_and_round_trip_byte_for_byte(tmp_path, kind):
    value, write, read = {
        "operator": (_operator(), write_operator, read_operator),
        "norm": (make_spec([1.0, 2.5], agg="lq", q=2.0), write_norm_spec, read_norm_spec),
        "set": (CompactRealSet(intervals=(("1/3", "2/3"),), points=(0, "0.1")),
                write_set, read_set),
        "cantor": (CompactRealSet.cantor(depth=3, ratio="1/3"), write_set, read_set),
        "pl": (PLFunction(breakpoints=(0.0, 0.5, 1.0), values=(0.0, 1 + 1e-17j, -2.0)),
               write_pl, read_pl),
    }[kind]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    write(value, first)
    _check_format(first)
    write(read(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_certificate_file_is_canonical_with_an_infinite_gap(tmp_path):
    # sigma(T) = {0, 0} is one cluster, so components_before has no gap
    cert = disconnect_rr0(block_operator([(0, np.zeros((2, 2)))]), 1e-9)
    assert cert.components_before.n_components == 1
    path = tmp_path / "cert.json"
    write_certificate(cert, path, seed=3)
    data = _check_format(path)
    assert data["components_before"]["gap"] == "inf"
    assert '"gap":"inf"' in path.read_text()
    dump(load(path), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_operator_with_non_finite_entries_round_trips(tmp_path):
    # bare NaN/Infinity tokens are not strict JSON; these entries are strings
    T = block_operator([(0, [[np.nan, 1.0], [np.inf, -np.inf]])])
    path = tmp_path / "nan.json"
    write_operator(T, path)
    data = _check_format(path)
    assert data["summands"][0]["re"] == [["nan", 1.0], ["inf", "-inf"]]
    np.testing.assert_array_equal(read_operator(path).block(0), T.block(0))


def test_hand_written_nan_tokens_still_read(tmp_path):
    path = tmp_path / "op.json"
    path.write_text('{"summands":[{"id":0,"dim":1,"re":[[NaN]],"im":[[0.0]]},'
                    '{"id":1,"dim":1,"re":[[-Infinity]],"im":[[0.0]]}]}')
    T = read_operator(path)
    assert np.isnan(T.block(0)[0, 0]) and T.block(1)[0, 0] == -np.inf


def test_numpy_non_finite_scalars_are_plain_strings(capsys):
    # under NumPy 2, repr(np.float64("inf")) is "np.float64(inf)"
    r = CheckResult(name="x", passed=False, worst=np.float64("inf"), tol=1e-9,
                    detail={"x": np.float64("nan"), "n": np.int64(3),
                            "pair": (np.float32(-np.inf), 1 + 2j)})
    d = r.to_dict()
    assert d["worst"] == "inf" and d["detail"]["x"] == "nan"
    assert d["detail"]["n"] == 3 and d["detail"]["pair"] == ["-inf", [1.0, 2.0]]
    assert SuiteReport((r,)).to_dict()["suites"] == [d]
    cli._emit(argparse.Namespace(seed=5), {"worst": np.float64("inf"),
                                           "detail": {"x": np.float64("nan")}})
    out = capsys.readouterr().out
    assert out == ('{"detail":{"x":"nan"},"seed":5,"version":"0.1.0",'
                   '"worst":"inf"}\n')


def test_jsonable_keeps_finite_values_and_their_repr():
    values = [0.1, 1e-300, -0.0, 2**53 + 1, True, None, "s", np.float64(0.1)]
    assert dumps(values) == '[0.1,1e-300,-0.0,9007199254740993,true,null,"s",0.1]'
    assert jsonable({"z": np.complex128(1 - 0.5j)}) == {"z": [1.0, -0.5]}
