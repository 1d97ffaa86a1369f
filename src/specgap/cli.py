"""Command-line front end.

Every subcommand reads/writes the package's JSON and CSV formats, prints a
single machine-readable JSON report on stdout and reserves stderr for
human-facing notes.  The JSON bytes are those of ``specgap._jsonio``, the
one codec of every file and report.  Exit codes: 0 success; 1 a domain
failure, any ``SpecgapError``: a construction or check that did not go
through, or file content the library refuses with a typed error (see the
README); 2 a usage error: bad flags or argument values (``ValueError`` from
the library too), or an input file that is missing, is not JSON, lacks a key
or holds a wrong container.  File outputs are confined to ``--output-dir``.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys

from . import __version__
from ._jsonio import dump, dumps
from .algebra import AlgebraSpec, BlockOperator, read_operator, write_operator
from .cfun import cfun_disconnect, range_components, read_pl, read_set, write_pl
from .errors import SpecgapError, UsageError
from .norms import c_phi, dominating_check, read_norm_spec
from .perturb import (certificate_to_dict, counterexample_operator, disconnect,
                      disconnect_rr0, verify_counterexample)
from .riesz import (circle, rectangle, riesz_idempotent, riesz_quadrature,
                    verify_idempotent)
from .spectral import GridSpec, pseudospectrum_grid, write_pseudospectrum_csv
from .uppertri import shift_example, ut_inclusion_check
from .verify import SUITES, run_suites

__all__ = ["main"]


def _emit(args, payload: dict, write=None):
    """Print the report; with ``--out``, first ``write`` there and report the path."""
    if write is not None and args.out:
        base = pathlib.Path(args.output_dir).resolve()
        path = (base / args.out).resolve()
        if not path.is_relative_to(base):
            raise UsageError(f"output path {args.out!r} escapes --output-dir {base}")
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
        payload["out"] = str(path)
    print(dumps({"version": __version__, "seed": args.seed, **payload}))


def _parse_complex(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError:
        raise UsageError(f"expected 're,im', got {text!r}")


def _parse_dims(text: str):
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated dims, got {text!r}")


# -- subcommand handlers -----------------------------------------------------


def _emit_certificate(args, cert) -> int:
    """Report the certificate file's fields but ``X``, ``E`` and ``norm``, its
    spectrum reports as their component counts, and ``disconnected``."""
    data = certificate_to_dict(cert, seed=args.seed)
    summary = {k: v for k, v in data.items() if k not in ("X", "E", "norm")}
    for key in ("components_before", "components_after"):
        summary[key] = data[key]["n_components"]
    summary["disconnected"] = cert.disconnected
    _emit(args, summary, lambda p: dump(data, p))
    return 0


def _cmd_disconnect(args) -> int:
    T = read_operator(args.operator)
    return _emit_certificate(args, disconnect(T, args.eps, read_norm_spec(args.norm)))


def _cmd_disconnect_rr0(args) -> int:
    return _emit_certificate(args, disconnect_rr0(read_operator(args.operator), args.eps))


def _cmd_cphi(args) -> int:
    spec = read_norm_spec(args.norm)
    alg = AlgebraSpec(_parse_dims(args.dims), args.tail)
    value = c_phi(spec, alg)
    _emit(args, {"c_phi": value, "finite": math.isfinite(value),
                 "dominating": dominating_check(spec, alg)})
    return 0


def _cmd_riesz(args) -> int:
    T = read_operator(args.operator)
    if (args.center is None) != (args.radius is None):
        raise UsageError("--center and --radius go together")
    if args.center is not None:
        contour = circle(_parse_complex(args.center), args.radius, nodes=args.nodes)
    elif args.corners is not None:
        try:
            lo_s, hi_s = args.corners.split(":")
        except ValueError:
            raise UsageError(f"expected 'relo,imlo:rehi,imhi', got {args.corners!r}")
        contour = rectangle(_parse_complex(lo_s), _parse_complex(hi_s),
                            nodes=args.nodes)
    else:
        raise UsageError("need --center/--radius or --corners")
    P = riesz_idempotent(T, contour)
    rep = verify_idempotent(P, T)
    P_quad = riesz_quadrature(T, contour)
    payload = {"idem_residual": rep.idem_residual, "commutator": rep.commutator,
               "rank": rep.rank, "corank": rep.corank,
               "quadrature_deviation": float((P - P_quad).norm())}
    _emit(args, payload, lambda p: write_operator(P, p))
    return 0


def _cmd_pseudospectrum(args) -> int:
    T = read_operator(args.operator)
    try:
        re_min, re_max, im_min, im_max = (float(x) for x in args.grid.split(","))
    except ValueError:
        raise UsageError(f"expected 'remin,remax,immin,immax', got {args.grid!r}")
    grid = GridSpec(re_min, re_max, im_min, im_max, nx=args.nx, ny=args.ny)
    ps = pseudospectrum_grid(T, args.eps, grid, threads=args.threads)
    payload = {"eps": ps.eps, "nx": args.nx, "ny": args.ny,
               "marked_fraction": ps.marked_fraction}
    _emit(args, payload, lambda p: write_pseudospectrum_csv(ps, p))
    return 0


def _cmd_shift_demo(args) -> int:
    T, b = shift_example(args.n)
    rep = ut_inclusion_check(b)
    half = GridSpec(-1.2, 1.2, -1.2, 1.2, nx=args.nx, ny=args.nx)
    ps = pseudospectrum_grid(BlockOperator(((0, b.T1),)), args.eps, half,
                             threads=args.threads)
    payload = {"n": args.n, "eps": args.eps,
               "matched": rep.matched, "inclusion_passed": rep.passed,
               "half_shift_marked_fraction": ps.marked_fraction}
    _emit(args, payload, lambda p: write_pseudospectrum_csv(ps, p))
    return 0 if rep.passed else 1


def _cmd_cfun_disconnect(args) -> int:
    X = read_set(args.set)
    f = read_pl(args.fn)
    res = cfun_disconnect(X, f, args.eps)
    rep = range_components(res.g, X, resolution=args.resolution)
    payload = {
        "lambda": res.lam,
        "t0": float(res.t0),
        "sup_dist": res.sup_dist,
        "range_gap": res.range_gap,
        "piece": {"cut_lo": float(res.piece.cut_lo),
                  "cut_hi": float(res.piece.cut_hi),
                  "diam": float(res.piece.diam)},
        "range_components": rep.n_components,
    }
    _emit(args, payload, lambda p: write_pl(res.g, p))
    return 0 if rep.n_components >= 2 else 1


def _cmd_counterexample(args) -> int:
    T, spec = counterexample_operator(args.k)
    rep = verify_counterexample(T, spec, trials=args.trials,
                                phi_budget=args.budget, seed=args.seed)
    _emit(args, {"k": args.k, "trials": rep.trials, "passes": rep.passes,
                 "delta": rep.delta, "net_spacing": rep.net_spacing,
                 "phi_budget": rep.phi_budget,
                 "bound_violations": rep.bound_violations,
                 "connectivity_failures": rep.connectivity_failures,
                 "all_passed": rep.all_passed})
    return 0 if rep.all_passed else 1


def _cmd_verify_suite(args) -> int:
    names = args.suite or None
    report = run_suites(names, seed=args.seed)
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: worst={r.worst:.3e} tol={r.tol:.3e}",
              file=sys.stderr)
    _emit(args, report.to_dict())
    return 0 if report.all_passed else 1


# -- parser -------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="specgap",
        description="disconnect spectra of block operators by small perturbations")
    top.add_argument("--version", action="version", version=f"specgap {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    common.add_argument("--output-dir", default=".",
                        help="directory all file outputs must stay inside")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disconnect", parents=[common],
                       help="split sigma(T) with a perturbation small in a weighted norm")
    p.add_argument("--operator", required=True)
    p.add_argument("--norm", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", help="write the full certificate JSON here")
    p.set_defaults(func=_cmd_disconnect)

    p = sub.add_parser("disconnect-rr0", parents=[common],
                       help="operator-norm disconnection via a direct spectral cut")
    p.add_argument("--operator", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_disconnect_rr0)

    p = sub.add_parser("cphi", parents=[common],
                       help="sup-inf constant and domination check of a norm")
    p.add_argument("--norm", required=True)
    p.add_argument("--dims", required=True, help="comma-separated summand dims")
    p.add_argument("--tail", choices=("none", "repeat_last"), default="none")
    p.set_defaults(func=_cmd_cphi)

    p = sub.add_parser("riesz", parents=[common],
                       help="Riesz idempotent for a contour around part of the spectrum")
    p.add_argument("--operator", required=True)
    contour = p.add_mutually_exclusive_group()
    contour.add_argument("--center", help="circle center as 're,im'; a value with a "
                         "leading '-' takes the form --center=-0.1,0")
    p.add_argument("--radius", type=float, help="circle radius, with --center only")
    contour.add_argument("--corners", help="rectangle as 'relo,imlo:rehi,imhi'; a value with "
                         "a leading '-' takes the form --corners=-0.5,-0.5:0.5,0.5")
    p.add_argument("--nodes", type=int, default=128,
                   help="quadrature nodes of the quadrature_deviation cross-check, "
                        "and the most nodes the contour's proof may use")
    p.add_argument("--out", help="write the idempotent as operator JSON")
    p.set_defaults(func=_cmd_riesz)

    p = sub.add_parser("pseudospectrum", parents=[common],
                       help="sigma_min(T - zI) on a grid, marked at eps")
    p.add_argument("--operator", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--grid", required=True, help="'remin,remax,immin,immax'")
    p.add_argument("--nx", type=int, default=81)
    p.add_argument("--ny", type=int, default=81)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", help="write re,im,marked CSV here")
    p.set_defaults(func=_cmd_pseudospectrum)

    p = sub.add_parser("shift-demo", parents=[common],
                       help="cyclic shift vs its half compressions")
    p.add_argument("--n", type=int, default=64, help="even matrix size")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--nx", type=int, default=61)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", help="write the half-shift pseudospectrum CSV here")
    p.set_defaults(func=_cmd_shift_demo)

    p = sub.add_parser("cfun-disconnect", parents=[common],
                       help="perturb a function on a compact set so its range splits")
    p.add_argument("--set", required=True, help="compact set JSON")
    p.add_argument("--fn", required=True, help="piecewise linear function JSON")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--resolution", type=float, default=1e-3,
                   help="the range check joins pieces of X whose images under g "
                        "come within 3 * Lip(g) * resolution")
    p.add_argument("--out", help="write the perturbed function JSON here")
    p.set_defaults(func=_cmd_cfun_disconnect)

    p = sub.add_parser("counterexample", parents=[common],
                       help="divergent-weight family: small perturbations cannot split")
    p.add_argument("--k", type=int, default=12, help="number of summands")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--budget", type=float, default=0.99)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("verify-suite", parents=[common],
                       help="run the package's invariant suites")
    p.add_argument("--suite", action="append", choices=sorted(SUITES),
                   help="run only this suite (repeatable; default: all)")
    p.set_defaults(func=_cmd_verify_suite)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SpecgapError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
