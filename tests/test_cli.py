import json

import numpy as np
import pytest

from specgap.algebra import AlgebraSpec, block_operator, write_operator
from specgap.cfun import CompactRealSet, PLFunction, write_pl, write_set
from specgap.cli import main
from specgap.norms import operator_norm_spec, write_norm_spec
from specgap.perturb import certificate_from_dict
from specgap.sampling import random_block_operator, rng_from_seed

from conftest import make_spec


@pytest.fixture
def op_file(tmp_path):
    T = block_operator([(0, np.diag([0.0, 1.0])), (1, np.diag([0.25, 0.75]))])
    p = tmp_path / "op.json"
    write_operator(T, p)
    return p


@pytest.fixture
def norm_file(tmp_path):
    p = tmp_path / "norm.json"
    write_norm_spec(make_spec([1.0, 2.0]), p)
    return p


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


def test_disconnect_command(capsys, tmp_path, op_file, norm_file):
    code, payload, _ = run(capsys, "disconnect", "--operator", op_file,
                           "--norm", norm_file, "--eps", "0.1",
                           "--output-dir", tmp_path, "--out", "cert.json")
    assert code == 0
    assert payload["phi_X"] < 0.1
    assert payload["components_after"] >= 2
    assert payload["disconnected"] is True
    assert payload["version"] and payload["seed"] == 0
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert cert["route"] == "sup_inf"


def test_stdout_bytes_are_reproducible(capsys, tmp_path, op_file, norm_file):
    args = ("disconnect", "--operator", op_file, "--norm", norm_file,
            "--eps", "0.1", "--output-dir", tmp_path)
    code1, p1, _ = run(capsys, *args)
    code2, p2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and p1 == p2


def test_disconnect_rr0_command(capsys, tmp_path, op_file):
    code, payload, _ = run(capsys, "disconnect-rr0", "--operator", op_file,
                           "--eps", "0.5", "--output-dir", tmp_path)
    assert code == 0
    assert payload["route"] == "rr0"
    assert payload["eps0"] == pytest.approx(0.25)


# The CLI JSON only gains keys: a key dropped or renamed breaks its readers
CERTIFICATE_KEYS = {"E", "X", "components_after", "components_before", "delta",
                    "eps0", "gap_achieved", "lambda", "norm", "phi_E", "phi_TE",
                    "phi_X", "route", "seed", "separation", "separation_bound",
                    "version"}
# the summary is the file's fields without the operators and the norm
SUMMARY_KEYS = CERTIFICATE_KEYS - {"X", "E", "norm"} | {"disconnected", "out"}


@pytest.mark.parametrize("command", ["disconnect", "disconnect-rr0"])
def test_disconnect_key_sets(capsys, tmp_path, op_file, norm_file, command):
    extra = ("--norm", norm_file) if command == "disconnect" else ()
    code, payload, _ = run(capsys, command, "--operator", op_file, *extra,
                           "--eps", "0.1", "--output-dir", tmp_path,
                           "--out", "cert.json")
    assert code == 0
    assert set(payload) == SUMMARY_KEYS
    assert set(json.loads((tmp_path / "cert.json").read_text())) == CERTIFICATE_KEYS


def test_cphi_command(capsys, tmp_path, norm_file):
    code, payload, _ = run(capsys, "cphi", "--norm", norm_file,
                           "--dims", "2,2", "--output-dir", tmp_path)
    assert code == 0
    assert payload["c_phi"] == 2.0
    assert payload["finite"] is True and payload["dominating"] is True


def test_cphi_divergent_reports_inf(capsys, tmp_path):
    p = tmp_path / "divnorm.json"
    write_norm_spec(make_spec([1.0, 2.0], tail_weights="divergent"), p)
    code, payload, _ = run(capsys, "cphi", "--norm", p, "--dims", "2,2",
                           "--tail", "repeat_last", "--output-dir", tmp_path)
    assert code == 0
    assert payload["c_phi"] == "inf" and payload["finite"] is False


def test_cphi_nan_weight_exits_1(capsys, tmp_path):
    p = tmp_path / "nannorm.json"
    p.write_text('{"base":[{"kind":"operator"}],"weights":[NaN],"agg":"sup"}')
    code, payload, err = run(capsys, "cphi", "--norm", p, "--dims", "2",
                             "--output-dir", tmp_path)
    assert code == 1 and payload is None
    assert "ShapeMismatch" in err


def test_cphi_unknown_base_kind_exits_1(capsys, tmp_path):
    p = tmp_path / "nuclear.json"
    p.write_text('{"base":[{"kind":"nuclear"}],"weights":[1.0],"agg":"sup"}')
    code, payload, err = run(capsys, "cphi", "--norm", p, "--dims", "2",
                             "--output-dir", tmp_path)
    assert code == 1 and payload is None
    assert "ShapeMismatch" in err and "nuclear" in err


def test_riesz_command(capsys, tmp_path, op_file):
    code, payload, _ = run(capsys, "riesz", "--operator", op_file,
                           "--center", "0,0", "--radius", "0.1",
                           "--output-dir", tmp_path, "--out", "proj.json")
    assert code == 0
    assert payload["rank"] == 1
    assert payload["idem_residual"] < 1e-10
    assert payload["quadrature_deviation"] < 1e-10
    assert (tmp_path / "proj.json").exists()


def test_riesz_on_the_circle_of_an_rr0_certificate(capsys, tmp_path):
    """The circle (lambda + eps0, gap_achieved / 2) of a certificate is
    proved clear of the spectrum and accepted as it is."""
    T = random_block_operator(AlgebraSpec(dims=(3, 4), tail="none"), rng_from_seed(5))
    write_operator(T, tmp_path / "op.json")
    code, payload, _ = run(capsys, "disconnect-rr0", "--operator", tmp_path / "op.json",
                           "--eps", "0.1", "--output-dir", tmp_path, "--out", "cert.json")
    assert code == 0
    cert = certificate_from_dict(json.loads((tmp_path / "cert.json").read_text()))
    write_operator(T + cert["X"], tmp_path / "split.json")
    mu, radius = cert["lambda"] + cert["eps0"], payload["gap_achieved"] / 2.0
    contour = ("riesz", "--operator", tmp_path / "split.json", "--center",
               f"{mu.real!r},{mu.imag!r}", "--radius", repr(radius),
               "--output-dir", tmp_path)
    code, payload, _ = run(capsys, *contour)
    assert code == 0
    assert payload["rank"] == 1
    assert payload["idem_residual"] < 1e-10
    assert payload["quadrature_deviation"] < 1e-10


def test_riesz_contours_with_negative_values_in_the_equals_form(capsys, tmp_path):
    """A value that starts with '-' passes as --corners=... or --center=...;
    the spaced form is read as an option by argparse."""
    write_operator(block_operator([(0, [[0.0, 1.0], [0.0, 2.0]])]), tmp_path / "op.json")
    for contour in (["--corners=-0.5,-0.5:0.5,0.5"], ["--center=-0.1,0", "--radius", "0.5"]):
        code, payload, _ = run(capsys, "riesz", "--operator", tmp_path / "op.json",
                               *contour, "--output-dir", tmp_path)
        assert code == 0 and payload["rank"] == 1


def test_domain_failure_exits_1(capsys, tmp_path, op_file):
    # a circle through the eigenvalue 0.25 is a domain error, not a usage error
    code, payload, err = run(capsys, "riesz", "--operator", op_file,
                             "--center", "0,0", "--radius", "0.25",
                             "--output-dir", tmp_path)
    assert code == 1 and payload is None
    assert "ContourThroughSpectrum" in err


def test_usage_failures_exit_2(capsys, tmp_path, op_file, norm_file):
    code, _, err = run(capsys, "disconnect", "--operator",
                       tmp_path / "missing.json", "--norm", norm_file,
                       "--eps", "0.1", "--output-dir", tmp_path)
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, "riesz", "--operator", op_file,
                       "--center", "nonsense", "--radius", "1",
                       "--output-dir", tmp_path)
    assert code == 2
    with pytest.raises(SystemExit) as ei:
        main(["no-such-command"])
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:     # the removed --ideal flag
        main(["disconnect", "--operator", str(op_file), "--norm", str(norm_file),
              "--eps", "0.1", "--ideal", "full"])
    assert ei.value.code == 2
    # argument values the library rejects with ValueError are usage errors too
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    for argv in (("counterexample", "--k", "1"),
                 ("counterexample", "--trials", "0"),
                 ("counterexample", "--budget", "-1"),
                 ("counterexample", "--budget", "nan"),
                 ("shift-demo", "--n", "3"),
                 ("disconnect-rr0", "--operator", op_file, "--eps", "0"),
                 ("disconnect-rr0", "--operator", op_file, "--eps", "nan"),
                 ("pseudospectrum", "--operator", op_file, "--eps", "0.1",
                  "--grid=1,1,0,1"),
                 ("pseudospectrum", "--operator", op_file, "--eps", "0.1",
                  "--grid=nan,1,0,1"),
                 ("pseudospectrum", "--operator", op_file, "--eps", "0.1",
                  "--grid=0,inf,0,1"),
                 ("pseudospectrum", "--operator", op_file, "--eps", "nan",
                  "--grid=0,1,0,1"),
                 ("pseudospectrum", "--operator", op_file, "--eps", "-1",
                  "--grid=0,1,0,1"),
                 ("pseudospectrum", "--operator", op_file, "--eps", "0",
                  "--grid=0,1,0,1"),
                 ("pseudospectrum", "--operator", op_file, "--eps", "inf",
                  "--grid=0,1,0,1"),
                 ("pseudospectrum", "--operator", op_file, "--eps", "0.1",
                  "--grid=0,1,0,1", "--threads", "0"),
                 ("shift-demo", "--n", "8", "--threads", "-3"),
                 ("riesz", "--operator", op_file, "--center", "0,0", "--radius", "nan"),
                 ("riesz", "--operator", op_file, "--center", "inf,0", "--radius", "0.1"),
                 ("cphi", "--norm", norm_file, "--dims", "2,x"),
                 ("riesz", "--operator", op_file, "--center", "0,0"),
                 ("riesz", "--operator", op_file, "--corners", "0,0"),
                 ("riesz", "--operator", op_file),
                 ("pseudospectrum", "--operator", op_file, "--eps", "0.1", "--grid=0,1,0"),
                 ("disconnect-rr0", "--operator", bad_json, "--eps", "0.1")):
        code, payload, err = run(capsys, *argv, "--output-dir", tmp_path)
        assert code == 2 and payload is None and "usage error" in err, argv


def test_outputs_confined_to_output_dir(capsys, tmp_path, op_file, norm_file):
    code, _, err = run(capsys, "disconnect", "--operator", op_file,
                       "--norm", norm_file, "--eps", "0.1",
                       "--output-dir", tmp_path / "inner",
                       "--out", "../escape.json")
    assert code == 2 and "escapes" in err
    assert not (tmp_path / "escape.json").exists()
    # relative subdirectories inside the sandbox are fine
    code, _, _ = run(capsys, "disconnect", "--operator", op_file,
                     "--norm", norm_file, "--eps", "0.1",
                     "--output-dir", tmp_path / "inner",
                     "--out", "sub/cert.json")
    assert code == 0 and (tmp_path / "inner" / "sub" / "cert.json").exists()


def test_pseudospectrum_command(capsys, tmp_path, op_file):
    code, payload, _ = run(capsys, "pseudospectrum", "--operator", op_file,
                           "--eps", "0.2", "--grid=-1,2,-1,1",
                           "--nx", "11", "--ny", "7",
                           "--output-dir", tmp_path, "--out", "ps.csv")
    assert code == 0
    assert 0.0 < payload["marked_fraction"] < 1.0
    assert (tmp_path / "ps.csv").read_text().startswith("re,im,marked")


def test_pseudospectrum_nan_entry_exits_1(capsys, tmp_path):
    T = block_operator([(0, np.diag([0.0, 1.0])),
                        (1, np.array([[np.nan, 0.0], [0.0, 1.0]]))])
    write_operator(T, tmp_path / "nan.json")
    code, payload, err = run(capsys, "pseudospectrum", "--operator", tmp_path / "nan.json",
                             "--eps", "0.1", "--grid=-1,1,-1,1", "--nx", "5", "--ny", "5",
                             "--output-dir", tmp_path)
    assert code == 1 and payload is None
    assert "ConvergenceFailure" in err and "summand 1" in err


def test_disconnect_nan_entry_exits_1(capsys, tmp_path):
    T = block_operator([(0, np.diag([0.0, 1.0])),
                        (1, np.array([[np.nan, 0.0], [0.0, 1.0]]))])
    write_operator(T, tmp_path / "nan.json")
    code, payload, err = run(capsys, "disconnect-rr0", "--operator", tmp_path / "nan.json",
                             "--eps", "0.1")
    assert code == 1 and payload is None
    assert "ConvergenceFailure: eigensolver failed on summand 1" in err


def test_fractional_summand_id_exits_1(capsys, tmp_path):
    # the id 1.7 is refused, not read as summand 1
    (tmp_path / "op.json").write_text(
        '{"summands":[{"id":0,"dim":1,"re":[[0.0]],"im":[[0.0]]},'
        '{"id":1.7,"dim":1,"re":[[1.0]],"im":[[0.0]]}],"tail":"none"}')
    code, payload, err = run(capsys, "disconnect-rr0", "--operator", tmp_path / "op.json",
                             "--eps", "0.1", "--output-dir", tmp_path)
    assert code == 1 and payload is None
    assert "ShapeMismatch: summand ids must be integers >= 0, got 1.7" in err


def test_shift_demo_command(capsys, tmp_path):
    code, payload, _ = run(capsys, "shift-demo", "--n", "16", "--eps", "1e-3",
                           "--nx", "31", "--output-dir", tmp_path)
    assert code == 0
    assert payload["inclusion_passed"] is True
    assert payload["half_shift_marked_fraction"] > 0.0


def test_cfun_disconnect_command(capsys, tmp_path):
    write_set(CompactRealSet.cantor(depth=6, ratio="1/3"), tmp_path / "set.json")
    write_pl(PLFunction(breakpoints=(-0.5, 1.5), values=(0.0, 2.0)),
             tmp_path / "fn.json")
    code, payload, _ = run(capsys, "cfun-disconnect", "--set", tmp_path / "set.json",
                           "--fn", tmp_path / "fn.json", "--eps", "0.1",
                           "--output-dir", tmp_path, "--out", "g.json")
    assert code == 0
    assert payload["sup_dist"] < 0.1 and payload["range_gap"] > 0.0
    assert payload["range_components"] >= 2
    assert (tmp_path / "g.json").exists()


def test_cfun_disconnect_too_shallow_stage_exits_1(capsys, tmp_path):
    # eps too small for every clopen piece of the stage: a failed
    # construction, not a usage error
    write_set(CompactRealSet.cantor(depth=6, ratio="1/3"), tmp_path / "set.json")
    write_pl(PLFunction(breakpoints=(-0.5, 1.5), values=(0.0, 2.0)),
             tmp_path / "fn.json")
    code, payload, err = run(capsys, "cfun-disconnect", "--set", tmp_path / "set.json",
                             "--fn", tmp_path / "fn.json", "--eps", "1e-9",
                             "--output-dir", tmp_path)
    assert code == 1 and payload is None
    assert err.startswith("StageTooShallow: no clopen piece is small enough")


def test_cfun_disconnect_tiny_resolution_exits_0(capsys, tmp_path):
    # 64 pieces of 3**-6 at resolution 1e-12: a threshold of 1.6e-11 links
    # only the pieces that g sends to its one value lambda; no sample is taken
    write_set(CompactRealSet.cantor(depth=6, ratio="1/3"), tmp_path / "set.json")
    write_pl(PLFunction(breakpoints=(-0.5, 1.5), values=(0.0, 2.0)),
             tmp_path / "fn.json")
    code, payload, err = run(capsys, "cfun-disconnect", "--set", tmp_path / "set.json",
                             "--fn", tmp_path / "fn.json", "--eps", "0.1",
                             "--resolution", "1e-12", "--output-dir", tmp_path)
    assert code == 0 and payload["range_components"] >= 2, err


def test_cfun_disconnect_overflowing_range_exits_1(capsys, tmp_path):
    # f's one segment is 3e154 long, and its square overflows a float
    write_set(CompactRealSet(points=(0, 1)), tmp_path / "set.json")
    write_pl(PLFunction(breakpoints=(-1.0, 2.0), values=(0.0, 3e154)), tmp_path / "fn.json")
    code, payload, err = run(capsys, "cfun-disconnect", "--set", tmp_path / "set.json",
                             "--fn", tmp_path / "fn.json", "--eps", "1e150",
                             "--output-dir", tmp_path)
    assert code == 1 and payload is None
    assert err.startswith("RangeOverflow: a segment of the range is 3e+154 long"), err


def test_cfun_disconnect_non_integer_depth_exits_1(capsys, tmp_path):
    write_pl(PLFunction(breakpoints=(-0.5, 1.5), values=(0.0, 2.0)),
             tmp_path / "fn.json")
    for depth in ("2.5", "true"):
        (tmp_path / "set.json").write_text(
            '{"generator":{"cantor":{"depth":%s,"ratio":"1/3"}}}\n' % depth)
        code, payload, err = run(capsys, "cfun-disconnect", "--set", tmp_path / "set.json",
                                 "--fn", tmp_path / "fn.json", "--eps", "0.1",
                                 "--output-dir", tmp_path)
        assert code == 1 and payload is None, depth
        assert err.startswith("ShapeMismatch: cantor depth must be an integer"), err


def test_cfun_disconnect_too_deep_stage_exits_1(capsys, tmp_path):
    write_pl(PLFunction(breakpoints=(-0.5, 1.5), values=(0.0, 2.0)),
             tmp_path / "fn.json")
    (tmp_path / "set.json").write_text(
        '{"generator":{"cantor":{"depth":30,"ratio":"1/3"}}}\n')
    code, payload, err = run(capsys, "cfun-disconnect", "--set", tmp_path / "set.json",
                             "--fn", tmp_path / "fn.json", "--eps", "0.1",
                             "--output-dir", tmp_path)
    assert code == 1 and payload is None
    assert err.startswith("ShapeMismatch: cantor depth 30 asks for 2**30 pieces"), err


def test_cfun_disconnect_set_off_its_stage_exits_1(capsys, tmp_path):
    write_pl(PLFunction(breakpoints=(-0.5, 1.5), values=(0.0, 2.0)),
             tmp_path / "fn.json")
    (tmp_path / "set.json").write_text(
        '{"intervals":[[0,0.1],[0.9,1]],"points":[5],'
        '"generator":{"cantor":{"depth":3,"ratio":"1/3","lo":0,"hi":1}}}\n')
    code, payload, err = run(capsys, "cfun-disconnect", "--set", tmp_path / "set.json",
                             "--fn", tmp_path / "fn.json", "--eps", "0.1",
                             "--output-dir", tmp_path)
    assert code == 1 and payload is None
    assert err.startswith("ShapeMismatch: a generator-backed set must be its "
                          "generator's stage"), err
    # the file the writer makes for that stage reads back
    write_set(CompactRealSet.cantor(depth=3, ratio="1/3"), tmp_path / "set.json")
    code, payload, _ = run(capsys, "cfun-disconnect", "--set", tmp_path / "set.json",
                           "--fn", tmp_path / "fn.json", "--eps", "0.5",
                           "--output-dir", tmp_path)
    assert code == 0 and payload["sup_dist"] < 0.5


def test_cfun_disconnect_usage_failures_exit_2(capsys, tmp_path):
    write_set(CompactRealSet.cantor(depth=6, ratio="1/3"), tmp_path / "set.json")
    write_pl(PLFunction(breakpoints=(-0.5, 1.5), values=(0.0, 2.0)),
             tmp_path / "fn.json")
    (tmp_path / "nan.json").write_text('{"breakpoints":[-0.5,1.5],"im":[0.0,0.0],'
                                       '"re":[0.0,NaN]}\n')
    (tmp_path / "steep.json").write_text('{"breakpoints":[-0.5,1.5],"im":[0.0,0.0],'
                                         '"re":[-1e308,1e308]}\n')
    for fn, resolution in (("fn.json", "inf"), ("fn.json", "nan"), ("fn.json", "0"),
                           ("nan.json", "1e-3"), ("steep.json", "1e-3")):
        code, payload, err = run(capsys, "cfun-disconnect", "--set", tmp_path / "set.json",
                                 "--fn", tmp_path / fn, "--eps", "0.1",
                                 "--resolution", resolution, "--output-dir", tmp_path)
        assert code == 2 and payload is None and "usage error" in err, (fn, resolution)


@pytest.mark.parametrize("flag, text", [
    ("--operator", "{}"), ("--operator", "[1, 2]"), ("--operator", '{"summands": [{"id": 0}]}'),
    ("--norm", "{}"), ("--norm", "[1, 2]"), ("--set", "[1, 2]"), ("--fn", "{}"),
    ("--fn", "[1, 2]"),
    # a null or a number where the re/im lists belong: dense, rank-one and PL
    ("--operator", '{"summands":[{"id":0,"dim":1,"re":null,"im":[[0.0]]}]}'),
    ("--operator", '{"summands":[{"id":0,"dim":1,"re":[[0.0]],"im":2.0}]}'),
    ("--operator", '{"summands":[{"id":0,"dim":2}],"rank_one":{"id":0,'
                   '"left":{"re":null,"im":[0.0,0.0]},"right":{"re":[1.0,0.0],"im":[0.0,0.0]}}}'),
    ("--operator", '{"summands":[{"id":0,"dim":2}],"rank_one":{"id":0,'
                   '"left":{"re":[1.0,0.0],"im":[0.0,0.0]},"right":{"re":[1.0,0.0],"im":"0"}}}'),
    ("--fn", '{"breakpoints":[-0.5,1.5],"re":[0.0,2.0],"im":null}'),
    ("--fn", '{"breakpoints":[-0.5,1.5],"re":[0.0,2.0],"im":0.5}')])
def test_malformed_input_files_exit_2(capsys, tmp_path, op_file, norm_file, flag, text):
    """A missing key or a wrong container type is a usage error naming the
    file, not a traceback."""
    files = {"--operator": op_file, "--norm": norm_file,
             "--set": tmp_path / "set.json", "--fn": tmp_path / "fn.json"}
    write_set(CompactRealSet.cantor(depth=6, ratio="1/3"), files["--set"])
    write_pl(PLFunction(breakpoints=(-0.5, 1.5), values=(0.0, 2.0)), files["--fn"])
    files[flag] = tmp_path / "bad.json"
    files[flag].write_text(text)
    command = "disconnect" if flag in ("--operator", "--norm") else "cfun-disconnect"
    pair = ("--operator", "--norm") if command == "disconnect" else ("--set", "--fn")
    code, payload, err = run(capsys, command, *(a for f in pair for a in (f, files[f])),
                             "--eps", "0.1", "--output-dir", tmp_path)
    assert code == 2 and payload is None
    assert err.startswith("usage error: ") and f"{files[flag]}: malformed file" in err


def test_counterexample_command(capsys, tmp_path):
    code, payload, _ = run(capsys, "counterexample", "--k", "4",
                           "--trials", "5", "--output-dir", tmp_path)
    assert code == 0
    assert payload["passes"] == 5 and payload["all_passed"] is True


def test_verify_suite_command(capsys, tmp_path):
    code, payload, err = run(capsys, "verify-suite", "--suite", "uppertri",
                             "--suite", "riesz", "--output-dir", tmp_path)
    assert code == 0
    assert payload["all_passed"] is True
    assert {r["name"] for r in payload["suites"]} == {"uppertri", "riesz"}
    assert "PASS" in err


def test_seed_env_fallback(capsys, tmp_path, op_file, norm_file, monkeypatch):
    monkeypatch.setenv("SPECTOOL_SEED", "77")
    code, payload, _ = run(capsys, "disconnect", "--operator", op_file,
                           "--norm", norm_file, "--eps", "0.1",
                           "--output-dir", tmp_path)
    assert code == 0 and payload["seed"] == 77
