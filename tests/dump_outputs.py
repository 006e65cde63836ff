"""Write every output of the benchmark workloads and the README commands.

    python3 tests/dump_outputs.py OUT_DIR [--seed N]

Runs, in process and against the source tree this file sits in, every case
of the four workloads of perfbench/workloads.py at one seed (default 5) and
every `psf-matfunc` command line of README.md, and writes under OUT_DIR,
which must not exist yet:

- `<workload>/`: each CLI case's output file, under the name the workload
  gives it, and `api/<case id>.npy` (an array) or `.txt` (any other value)
  for each case that calls the library directly;
- `<workload>/cases.txt`: per case id, in sorted order, its exit code (the
  outcome class of an API case), stdout and stderr;
- `readme/<i>/`: the output file of README command i, run in that
  directory, and `readme/cases.txt` as above.

The `wall_time_ms` column of app records reports real elapsed time, so it
is dropped from every CSV that has it; every other byte is the program's.
Identical config and seed give byte-identical outputs, so between two
commits

    python3 tests/dump_outputs.py /tmp/a        # in one tree
    python3 tests/dump_outputs.py /tmp/b        # in the other
    diff -r /tmp/a /tmp/b

lists every output that moved. The workload module is read, not changed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shlex
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from psf_matfunc import cli  # noqa: E402


def readme_commands(readme: Path = ROOT / "README.md") -> list[list[str]]:
    """The argv of each line of the README that starts with `psf-matfunc `."""
    return [shlex.split(line, comments=True)[1:]
            for line in readme.read_text(encoding="utf-8").splitlines()
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


def _dump_workload(name: str, seed: int, out: Path) -> None:
    out.mkdir()
    entries = []
    with _inside(out):
        for case in workloads.build(name, seed, "."):
            result, output = _captured(case.call)
            if isinstance(result, str):
                entries.append((case.cid, result, output))
                continue
            code, payload = result
            entries.append((case.cid, code, output))
            if isinstance(payload, str) or payload is None:   # a CLI case's file
                continue
            target = Path("api", case.cid)
            target.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(payload, np.ndarray):
                np.save(target.with_name(target.name + ".npy"), payload)
            else:
                target.with_name(target.name + ".txt").write_text(repr(payload) + "\n")
    _write_log(out / "cases.txt", entries)


def dump(out: Path, seed: int) -> None:
    """Every output of the workloads at `seed` and of the README commands,
    under `out`, which must not exist yet."""
    out.mkdir(parents=True)
    for name in workloads.WORKLOADS:
        _dump_workload(name, seed, out / name)
    entries = []
    for i, argv in enumerate(readme_commands()):
        (out / "readme" / str(i)).mkdir(parents=True)
        with _inside(out / "readme" / str(i)):
            code, output = _captured(lambda: _run_cli(argv))
        entries.append((f"{i:02d} {shlex.join(argv)}", code, output))
    _write_log(out / "readme" / "cases.txt", entries)
    for path in out.rglob("*.csv"):
        _drop_wall_time(path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="directory to create")
    ap.add_argument("--seed", type=int, default=5, help="workload seed")
    args = ap.parse_args(argv)
    if args.out.exists():
        ap.error(f"{args.out} exists; name a new directory")
    dump(args.out, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
