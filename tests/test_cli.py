"""The skewlab command line: commands, CSV outputs, exit codes."""

import csv

import pytest

from skewlab.cli import main

IDENTITY_CFG = """
[base]
type = bernoulli
d = 2
probs = 0.5, 0.5

[fiber]
g0 = toral:1,0,0,1
g1 = toral:1,0,0,1

[run]
seed = 3
n_orbits = 10
n_steps = 50
"""

CAT_CFG = """
[base]
type = bernoulli
d = 2
probs = 0.5, 0.5
metric_base = 0.5

[fiber]
g0 = toral:2,1,1,1
g1 = toral:2,1,1,1

[run]
seed = 3
"""

TWISTED_CRITERION_CFG = """
[base]
type = bernoulli
d = 2
probs = 0.5, 0.5
metric_base = 0.5

[fiber]
g0 = toral:2,1,1,1
g1 = twist:0.25,0.25,0.2,0.5
g2 = compose:0,1

[skew]
assign = 0, 2

[run]
seed = 3
grid = 16
n_steps = 300

[criterion]
p_word = 0
z_symbol = 1
z_index = 1
i = 2
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_exponent_identity_is_zero(tmp_path, capsys):
    rc = main(["exponent", "--config", _write(tmp_path, IDENTITY_CFG), "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "exponent.csv")
    assert len(rows) == 1
    assert float(rows[0]["lambda_plus_mean"]) == 0.0
    assert rows[0]["seed"] == "3"
    assert "exponent mean=" in capsys.readouterr().out


def test_bunching_cat_halves_not_satisfied(tmp_path):
    rc = main(["bunching", "--config", _write(tmp_path, CAT_CFG), "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "bunching.csv")
    assert rows[0]["satisfied"] == "false"
    assert float(rows[0]["worst_margin"]) > 1.0


def test_holonomy_csv_schema(tmp_path, capsys):
    cfg = CAT_CFG.replace("metric_base = 0.5", "metric_base = 0.0625") + """
[skew]
family = holder

[holonomy]
direction = stable
point = 0.3, 0.7
"""
    rc = main(["holonomy", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "holonomy.csv")
    assert list(rows[0]) == ["n", "increment", "envelope"]
    assert [int(r["n"]) for r in rows] == list(range(1, len(rows) + 1))
    # every increment sits under its fitted geometric envelope
    for r in rows:
        assert float(r["increment"]) <= float(r["envelope"]) + 1e-12
    assert "stopped_at=" in capsys.readouterr().out


def test_criterion_twisted_cat(tmp_path, capsys):
    rc = main([
        "criterion", "--config", _write(tmp_path, TWISTED_CRITERION_CFG),
        "--out", str(tmp_path),
    ])
    assert rc == 0
    rows = _read_csv(tmp_path / "criterion.csv")
    assert rows[0]["pinching_flag"] == "true"
    assert rows[0]["twisting_flag"] == "true"
    assert abs(float(rows[0]["pinching_integral"]) - 0.9624236501192069) < 1e-2
    out = capsys.readouterr().out
    assert "pinching=true twisting=true" in out


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["exponent", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_output_io_error_exits_1(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    rc = main([
        "exponent", "--config", _write(tmp_path, IDENTITY_CFG),
        "--out", str(blocker / "sub"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_config_error_exits_2(tmp_path, capsys):
    rc = main(["exponent", "--config", _write(tmp_path, "[run]\nbogus = 1\n")])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, replaces",
    [
        ("toral:2.5,1,1,1", "g0 = toral:2,1,1,1"),  # int() truncation gave the cat map
        ("compose:0.9", "g2 = compose:0,1"),  # and this compose:0
    ],
)
def test_non_integral_map_spec_exits_2(tmp_path, capsys, spec, replaces):
    cfg = TWISTED_CRITERION_CFG.replace(replaces, replaces.split("=")[0] + "= " + spec)
    assert spec in cfg
    rc = main(["exponent", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert spec in capsys.readouterr().err
    assert not (tmp_path / "exponent.csv").exists()


def test_domain_error_exits_1(tmp_path, capsys):
    # rotation fibers: pinching fails, so the twisting stage is a domain error
    cfg = TWISTED_CRITERION_CFG.replace("g0 = toral:2,1,1,1", "g0 = toral:0,-1,1,0")
    cfg = cfg.replace("g1 = twist:0.25,0.25,0.2,0.5\ng2 = compose:0,1", "g1 = toral:0,-1,1,0")
    cfg = cfg.replace("[skew]\nassign = 0, 2\n", "")
    rc = main(["criterion", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, IDENTITY_CFG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["exponent", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["exponent", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "exponent.csv").read_bytes() == (out_b / "exponent.csv").read_bytes()


def test_unknown_command_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", _write(tmp_path, IDENTITY_CFG)])
