"""Write every output of the benchmark workloads, the README commands and
the edge command lines.

    python3 tests/dump_outputs.py OUT_DIR [--seed N] [--manifest FILE]

Runs, in process and against the source tree this file sits in, every case
of the four workloads of perfbench/workloads.py at one seed (default 5),
every `psf-matfunc` command line of README.md and every one of
tests/edge_commands.txt, and writes under OUT_DIR, which must not exist
yet:

- `<workload>/`: each CLI case's output file, under the name the workload
  gives it, and `api/<case id>.npy` (an array) or `.txt` (any other value)
  for each case that calls the library directly;
- `<workload>/cases.txt`: per case id, in sorted order, its exit code (the
  outcome class of an API case), stdout and stderr;
- `readme/<i>/`: the output file of README command i, run in that
  directory, and `readme/cases.txt` as above;
- `edge/<i>/` and `edge/cases.txt`: the same for edge command line i. An
  argument that names a file of tests/edge_inputs/ is copied into the
  directory for the run and removed after it, so the directory holds
  outputs only.

The `wall_time_ms` column of app records reports real elapsed time, so it
is dropped from every CSV that has it; every other byte is the program's.
Identical config and seed give byte-identical outputs, so between two
commits

    python3 tests/dump_outputs.py /tmp/a        # in one tree
    python3 tests/dump_outputs.py /tmp/b        # in the other
    diff -r /tmp/a /tmp/b

lists every output that moved. The workload module is read, not changed.

`--manifest FILE` also writes, as JSON, what a later dump is checked
against (tests/test_dump_outputs.py): the numpy version and its BLAS, the
sha256 of every dumped file, and per case its exit code and its headline
numbers as `repr` strings, K or m and each error_measured with its bound.
The checked-in manifest is tests/outputs_manifest.json, written at seed 5:

    python3 tests/dump_outputs.py /tmp/a --manifest tests/outputs_manifest.json
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import shlex
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from psf_matfunc import cli  # noqa: E402


README = ROOT / "README.md"
EDGE_COMMANDS = ROOT / "tests" / "edge_commands.txt"
EDGE_INPUTS = ROOT / "tests" / "edge_inputs"


def command_lines(path: Path = README) -> list[list[str]]:
    """The argv of each line of `path` that starts with `psf-matfunc `."""
    return [shlex.split(line, comments=True)[1:]
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.startswith("psf-matfunc ")]


def _captured(call) -> tuple[object, str]:
    """(call(), its stdout and stderr), or the exception's last line as the
    result of a call that raises."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            result = call()
        except Exception:   # a crash is recorded as an outcome, not raised
            result = "raised " + traceback.format_exc().strip().splitlines()[-1]
    return result, buf.getvalue()


@contextlib.contextmanager
def _inside(path: Path):
    """Run in `path`, so that the files a case names relatively land there."""
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


def _run_cli(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:   # argparse rejects a flag
        return int(exc.code or 0)


def _drop_wall_time(path: Path) -> None:
    """Drop the last column of a CSV whose header ends in wall_time_ms."""
    lines = path.read_bytes().split(b"\r\n")
    if lines[0].endswith(b",wall_time_ms"):
        path.write_bytes(b"\r\n".join(line.rpartition(b",")[0] for line in lines))


def _write_log(path: Path, entries: list[tuple[str, object, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for cid, code, output in sorted(entries, key=lambda e: e[0]):
            fh.write(f"== {cid}\nexit {code}\n{output}")


def headline(path: Path) -> dict:
    """K or m, and each (error_measured, its bound), of one CLI output file,
    as `repr` strings; {} for a file without them or one never written."""
    if path.suffix == ".json" and path.exists():
        report = json.loads(path.read_text(encoding="utf-8"))
        plan = report.get("plan", report)
        out = {key: [repr(plan[key])] for key in ("K", "m") if key in plan}
        if "error_measured" in report:
            bound = (report["error_bound"] if "error_bound" in report
                     else report["truncation_bound"] + report["aliasing_bound"])
            out["errors"] = [[repr(report["error_measured"]), repr(bound)]]
        return out
    if path.suffix != ".csv" or not path.exists():
        return {}
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = {}
    for key in ("K", "m"):
        counts = [row[key] for row in rows if key in row]
        counts += [p.partition("=")[2] for row in rows
                   for p in row.get("params", "").split(";") if p.startswith(key + "=")]
        if counts:
            out[key] = counts
    if rows and "error_bound" in rows[0]:      # app records and Fourier sweeps
        out["errors"] = [[row["error_measured"], row["error_bound"]] for row in rows]
    elif rows and "truncation_bound" in rows[0]:  # contour sweeps
        out["errors"] = [[row["error"], repr(float(row["aliasing_bound"])
                                             + float(row["truncation_bound"]))]
                         for row in rows]
    return out


def _dump_workload(name: str, seed: int, out: Path) -> dict:
    out.mkdir()
    entries, cases = [], {}
    with _inside(out):
        for case in workloads.build(name, seed, "."):
            result, output = _captured(case.call)
            if isinstance(result, str):
                entries.append((case.cid, result, output))
                cases[case.cid] = {"exit": result}
                continue
            code, payload = result
            entries.append((case.cid, code, output))
            cases[case.cid] = {"exit": code}
            if isinstance(payload, str):    # a CLI case's file
                cases[case.cid].update(headline(Path(payload)))
                continue
            if payload is None:
                continue
            target = Path("api", case.cid)
            target.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(payload, np.ndarray):
                np.save(target.with_name(target.name + ".npy"), payload)
            else:
                target.with_name(target.name + ".txt").write_text(repr(payload) + "\n")
    _write_log(out / "cases.txt", entries)
    return cases


def _dump_lines(lines: Path, out: Path) -> dict:
    """Run each command line of `lines` in its own directory `out/<i>/`."""
    entries, cases = [], {}
    for i, argv in enumerate(command_lines(lines)):
        run_dir = out / str(i)
        run_dir.mkdir(parents=True)
        inputs = [run_dir / arg for arg in argv if (EDGE_INPUTS / arg).is_file()]
        for path in inputs:
            shutil.copyfile(EDGE_INPUTS / path.name, path)
        with _inside(run_dir):
            code, output = _captured(lambda: _run_cli(argv))
        for path in inputs:
            path.unlink()
        cid = f"{i:02d} {shlex.join(argv)}"
        entries.append((cid, code, output))
        cases[cid] = {"exit": code}
        for path in run_dir.iterdir():
            cases[cid].update(headline(path))
    _write_log(out / "cases.txt", entries)
    return cases


def dump(out: Path, seed: int) -> dict:
    """Every output of the workloads at `seed`, of the README commands and
    of the edge command lines, under `out`, which must not exist yet;
    returns each case's exit code and headline numbers, keyed by
    "<workload>/<case id>", "readme/<i argv>" and "edge/<i argv>"."""
    out.mkdir(parents=True)
    cases = {}
    for name in workloads.WORKLOADS:
        cases.update({f"{name}/{cid}": case
                      for cid, case in _dump_workload(name, seed, out / name).items()})
    for name, lines in (("readme", README), ("edge", EDGE_COMMANDS)):
        cases.update({f"{name}/{cid}": case
                      for cid, case in _dump_lines(lines, out / name).items()})
    for path in out.rglob("*.csv"):
        _drop_wall_time(path)
    return cases


def fingerprint() -> dict:
    """The numpy version and the name and version of its BLAS: a dump is
    byte-identical only on the same pair."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def manifest(out: Path, seed: int) -> dict:
    """Dump under `out` and return the manifest of that dump."""
    cases = dump(out, seed)
    files = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(out.rglob("*")) if path.is_file()}
    return {"seed": seed, **fingerprint(), "files": files,
            "cases": dict(sorted(cases.items()))}


def manifest_text(man: dict) -> str:
    """The manifest as JSON with one line per file and per case, so that a
    diff of two manifests names each output that moved."""
    def entry(key, value, indent):
        if not isinstance(value, dict) or indent > 1:
            return f"{' ' * indent}{json.dumps(key)}: {json.dumps(value)}"
        inner = ",\n".join(entry(k, v, indent + 1) for k, v in value.items())
        return f"{' ' * indent}{json.dumps(key)}: {{\n{inner}\n{' ' * indent}}}"

    return "{\n" + ",\n".join(entry(k, v, 1) for k, v in man.items()) + "\n}\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="directory to create")
    ap.add_argument("--seed", type=int, default=5, help="workload seed")
    ap.add_argument("--manifest", type=Path, help="also write the dump's manifest here")
    args = ap.parse_args(argv)
    if args.out.exists():
        ap.error(f"{args.out} exists; name a new directory")
    if args.manifest is None:
        dump(args.out, args.seed)
    else:
        args.manifest.write_text(manifest_text(manifest(args.out, args.seed)),
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
