from psf_matfunc import cli
from psf_matfunc.io import RECORD_HEADER, write_csv

import dump_outputs


def test_readme_commands_name_cli_commands():
    commands = dump_outputs.readme_commands()
    assert len(commands) >= 7
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)


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
