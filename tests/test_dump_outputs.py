import json
from pathlib import Path

from psf_matfunc import cli
from psf_matfunc.io import RECORD_HEADER, write_csv

import dump_outputs

MANIFEST = Path(__file__).with_name("outputs_manifest.json")


def test_readme_commands_name_cli_commands():
    commands = dump_outputs.command_lines()
    assert len(commands) >= 7
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)


def test_edge_commands_name_cli_commands():
    commands = dump_outputs.command_lines(dump_outputs.EDGE_COMMANDS)
    assert len(commands) >= 10
    assert {argv[0] for argv in commands} <= set(cli._COMMANDS)


def test_drop_wall_time_leaves_every_other_byte(tmp_path):
    record = tmp_path / "app.csv"
    write_csv(record, RECORD_HEADER, [["heat", 1, 8, 1.0, 0.5, 1e-4, "K=5", 2.5e-05,
                                       5.1e-05, 0.21]])
    dump_outputs._drop_wall_time(record)
    assert record.read_bytes() == (b"app,d,n,h,T,eps,params,error_measured,error_bound\r\n"
                                   b"heat,1,8,1.0,0.5,0.0001,K=5,2.5e-05,5.1e-05\r\n")
    table = tmp_path / "sweep.csv"
    write_csv(table, ["K", "error_measured", "error_bound"], [[4, 0.5, 1.0]])
    before = table.read_bytes()
    dump_outputs._drop_wall_time(table)
    assert table.read_bytes() == before


def test_outputs_match_the_manifest(tmp_path):
    """A dump at the manifest's seed reproduces tests/outputs_manifest.json:
    every file byte for byte on the numpy and BLAS it was written with, and
    elsewhere every exit code and K or m exactly, with each error_measured
    at or below its bound. A change that moves an output on purpose
    rewrites the manifest (`dump_outputs.py OUT --manifest FILE`)."""
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = dump_outputs.manifest(tmp_path / "out", want["seed"])
    if (got["numpy"], got["blas"]) == (want["numpy"], want["blas"]):
        moved = sorted(name for name in want["files"].keys() | got["files"].keys()
                       if want["files"].get(name) != got["files"].get(name))
        assert moved == []

    def counts(cases):
        return {cid: {k: v for k, v in case.items() if k != "errors"}
                for cid, case in cases.items()}

    assert counts(got["cases"]) == counts(want["cases"])
    over = [(cid, err, bound) for cid, case in got["cases"].items()
            for err, bound in case.get("errors", []) if not float(err) <= float(bound)]
    assert over == []
