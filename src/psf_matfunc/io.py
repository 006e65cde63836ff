"""File formats: matrices, plans, reports, and RFC-4180 CSV.

Plans and reports are written, never read back: plan JSON is an output.
Matrices are only read: `--matrix` takes JSON ({rows, cols, re[], im[]},
row-major) or a Matrix Market coordinate file. Floats are rendered with
repr() everywhere so identical inputs produce byte-identical outputs (the
determinism contract for sweeps): the shortest string that reads back to
the same double (Gay, "Correctly rounded binary-decimal and decimal-binary
conversions", 1990).

CSV tables are written as the `csv` module's default dialect writes them
with `lineterminator="\\r\\n"` (QUOTE_MINIMAL): each record ends in CRLF,
and a field is quoted only when it holds a comma, a double quote, CR or LF,
its inner quotes doubled (RFC 4180); a record of one empty field is
written `""` so that it reads back as a field. `csv_text` forms each
record with one `",".join` and the table with one `"".join`, and renders a
plain float cell by an inline `repr`. It does not go through `csv.writer`:
on a 400 x 3 kernel table the writer's own per-field scan cost about 0.45
ms on top of the 0.8 ms that the repr of the 1200 floats takes (2-core x86
VM), and the repr is the floor. tests/test_io.py checks `csv_text` against
`csv.writer` byte for byte.
"""

from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple

import numpy as np

from .contour import ContourPlan
from .costmodel import CostReport
from .errors import MAX_DENSE_DIM, PrecondError
from .fourier import FourierPlan, lcu_coefficients
from .kernels import _MAX_LATTICE_SAMPLES
from .operators import ConvergenceRecord


# ---------------------------------------------------------------------------
# matrices

def _admit_shape(path: str, rows: int, cols: int) -> None:
    """A declared shape is refused before it is densified when a side
    exceeds the largest dense dimension the package admits anywhere."""
    if max(rows, cols) > MAX_DENSE_DIM:
        raise PrecondError(f"matrix in {path} is {rows}x{cols}, beyond the dense "
                           f"cap of {MAX_DENSE_DIM} rows and columns")


def load_matrix(path: str) -> np.ndarray:
    """Dense complex matrix from .json ({rows, cols, re[], im[]}) or a
    Matrix Market file (any other extension), at most 4096 x 4096."""
    if path.endswith(".json"):
        # ValueError covers malformed JSON and a non-numeric entry.
        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
            dims = float(obj["rows"]), float(obj["cols"])
            re = np.asarray(obj["re"], dtype=float)
            im = np.asarray(obj["im"], dtype=float)
        except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
            raise PrecondError(f"cannot read matrix JSON {path} "
                               f"(needs rows/cols/re/im): {exc}")
        if not all(d.is_integer() for d in dims):
            raise PrecondError(f"matrix JSON in {path}: rows and cols must be "
                               f"integers, got {obj['rows']!r} x {obj['cols']!r}")
        rows, cols = (int(d) for d in dims)
        _admit_shape(path, rows, cols)
        if min(rows, cols) < 0 or re.shape != (rows * cols,) or im.shape != (rows * cols,):
            raise PrecondError(
                f"matrix JSON in {path}: {rows}x{cols} declared, so re and im must be flat "
                f"lists of {rows * cols} entries, got shapes {re.shape} / {im.shape}")
        M = (re + 1j * im).reshape(rows, cols)
    else:
        import scipy.io   # scipy loads only for this branch
        try:
            rows, cols = scipy.io.mminfo(path)[:2]
            _admit_shape(path, rows, cols)   # before mmread densifies anything
            M = scipy.io.mmread(path)
        except PrecondError:
            raise
        except Exception as exc:
            raise PrecondError(f"cannot read Matrix Market file {path}: {exc}")
        M = np.asarray(getattr(M, "todense", lambda: M)(), dtype=complex)
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise PrecondError(f"matrix in {path} contains non-finite entries")
    return M


# ---------------------------------------------------------------------------
# plans and reports

def fourier_plan_json(plan: FourierPlan) -> dict:
    prof = plan.profile
    return {"alpha": prof.alpha, "T": prof.T, "mode": prof.mode,
            "a": plan.a, "K": plan.K, "eps_internal": plan.eps_internal,
            "spectral_scale": plan.spectral_scale,
            "c": [float(x) for x in lcu_coefficients(plan)]}


def contour_plan_json(plan: ContourPlan) -> dict:
    return {"R1": plan.r1, "R2": plan.r2, "m": plan.m, "mu": plan.mu,
            "quad_n": plan.quad_n, "B1": plan.b1, "B2": plan.b2,
            "kappa_S": plan.kappa_s}


def cost_report_json(report: CostReport) -> dict:
    return {"path": report.path, "matrix_queries": report.matrix_queries,
            "state_queries": report.state_queries, "lcu_terms": report.lcu_terms,
            "amplification": report.amplification, "l1_norm": report.l1_norm,
            "u_r": report.u_r, "assumptions": list(report.assumptions)}


def record_row(rec: ConvergenceRecord) -> list:
    params = ";".join(f"{k}={_fmt(v)}" for k, v in rec.params.items())
    return [rec.app, rec.d, rec.n, rec.h, rec.T, rec.eps, params,
            rec.error_measured, rec.error_bound, rec.wall_time_ms]


RECORD_HEADER = ["app", "d", "n", "h", "T", "eps", "params",
                 "error_measured", "error_bound", "wall_time_ms"]


def _write_text(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written (a missing
    directory, no permission) is a precondition failure, not a crash."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise PrecondError(f"cannot write {path}: {exc}")


def write_json(path: str, obj: dict) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=False) + "\n")


# ---------------------------------------------------------------------------
# CSV (RFC 4180: CRLF records, minimal quoting)

def _fmt(v) -> str:
    if v is None:
        return ""
    # np.float64 subclasses float, so cast before repr to keep the plain
    # 17-significant-digit form on numpy >= 2.
    if isinstance(v, (np.floating, float)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _cell(v) -> str:
    """`_fmt(v)` as one CSV field, quoted when it holds a delimiter, a quote,
    CR or LF."""
    s = _fmt(v)
    if "," in s or '"' in s or "\r" in s or "\n" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def csv_text(header: list, rows: list) -> str:
    out = []
    for row in (header, *rows):
        # A float's repr holds none of the characters that need quoting.
        line = ",".join([repr(v) if type(v) is float else _cell(v) for v in row])
        out.append(line + "\r\n" if line or len(row) != 1 else '""\r\n')
    return "".join(out)


def write_csv(path: str, header: list, rows: list) -> None:
    _write_text(path, csv_text(header, rows))


# ---------------------------------------------------------------------------
# function specs (closed enum) and range specs

class FunctionSpec(NamedTuple):
    label: str
    fn: Callable[[np.ndarray], np.ndarray]
    pole_radius: float | None         # nearest singularity, when applicable


def parse_function_spec(spec: str) -> FunctionSpec:
    """Closed enum: exp-neg, exp-neg-i, poly:a0,a1,..., inv-shift:c."""
    spec = spec.strip()
    if spec == "exp-neg":
        return FunctionSpec("exp-neg", lambda z: np.exp(-z), None)
    if spec == "exp-neg-i":
        return FunctionSpec("exp-neg-i", lambda z: np.exp(-1j * z), None)
    if spec.startswith("poly:"):
        try:
            coeffs = np.array([float(t) for t in spec[5:].split(",")], dtype=float)
        except ValueError as exc:
            raise PrecondError(f"bad polynomial coefficients in {spec!r}: {exc}")
        if not np.all(np.isfinite(coeffs)):
            raise PrecondError(f"polynomial coefficients must be finite, got {spec!r}")
        return FunctionSpec(spec, lambda z: np.polynomial.polynomial.polyval(z, coeffs),
                            None)
    if spec.startswith("inv-shift:"):
        try:
            c = float(spec[10:])
        except ValueError as exc:
            raise PrecondError(f"bad shift in {spec!r}: {exc}")
        if c == 0.0 or not math.isfinite(c):
            raise PrecondError(f"inv-shift needs a finite nonzero shift, got {spec!r}")
        return FunctionSpec(spec, lambda z: 1.0 / (z + c), abs(c))
    raise PrecondError(
        f"unknown function spec {spec!r}; use exp-neg, exp-neg-i, "
        "poly:a0,a1,..., or inv-shift:c")


def parse_lattice(spec: str) -> tuple[float, float, int]:
    """(lo, step, count) of lo:hi:step with inclusive endpoints (hi kept when
    it lands on the lattice); a bare number is one point with step 1."""
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            lo, step, count = float(parts[0]), 1.0, 1
        elif len(parts) == 3:
            lo, hi, step = (float(t) for t in parts)
            if step <= 0 or hi < lo:
                raise PrecondError(f"range {spec!r} needs hi >= lo and step > 0")
            count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        else:
            raise PrecondError(f"range {spec!r} must be lo:hi:step or a number")
    except (ValueError, OverflowError) as exc:
        raise PrecondError(f"bad range {spec!r}: {exc}")
    if count > _MAX_LATTICE_SAMPLES:
        raise PrecondError(f"range {spec!r} has {count} points, beyond the cap "
                           f"of {_MAX_LATTICE_SAMPLES}")
    return lo, step, count


def parse_range(spec: str) -> np.ndarray:
    """The points lo + i*step of `parse_lattice(spec)`, each of which must
    be an integer (cutoff and node-count sweeps)."""
    lo, step, count = parse_lattice(spec)
    vals = [lo + i * step for i in range(count)]
    if not all(abs(v) < 2.0 ** 63 for v in vals):
        raise PrecondError(f"range {spec!r} has a point beyond the int64 range")
    out = np.array([int(round(v)) for v in vals], dtype=int)
    if np.any(np.abs(out - np.asarray(vals)) > 1e-9):
        raise PrecondError(f"range {spec!r} must contain integers")
    return out
