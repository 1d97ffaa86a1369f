"""The one JSON codec of every file and stdout report: sorted keys, compact
separators and strict JSON (``jsonable`` turns NumPy scalars and arrays into
Python numbers and lists, non-finite floats into "inf"/"-inf"/"nan", complex
into [re, im]), floats in shortest repr, so identical runs emit identical
bytes.  A file adds one newline; ``load`` is plain ``json.load``, so NaN
tokens still read.
"""

import json
import math
import pathlib

import numpy as np

__all__ = ["jsonable", "dumps", "dump", "load", "read"]


def jsonable(v):
    if isinstance(v, (np.generic, np.ndarray)):
        v = v.tolist()
    if isinstance(v, float):
        return v if math.isfinite(v) else repr(v)
    if isinstance(v, complex):
        return [jsonable(v.real), jsonable(v.imag)]
    if isinstance(v, dict):
        return {k: jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    return v


def dumps(data) -> str:
    return json.dumps(jsonable(data), sort_keys=True, separators=(",", ":"), allow_nan=False)


def dump(data, path):
    pathlib.Path(path).write_text(dumps(data) + "\n")


def load(path):
    return json.loads(pathlib.Path(path).read_text())


def read(path, from_dict):
    """``from_dict(load(path))``, a malformed file's lookup error as ValueError."""
    data = load(path)
    try:
        return from_dict(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed file, {type(exc).__name__}: {exc}") from exc
