"""The skewlab command line: commands, CSV outputs, exit codes."""

import ast
import csv
import inspect
import time

import pytest

import skewlab.cli as cli
from skewlab.cli import main
from skewlab.config import RUN_KEYS

from _common import cat_system

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


# two admissible words at every depth: 0101... and 1010...
SWAP_DEPTH40_CFG = """
[base]
type = markov
d = 2
transitions = 0, 1, 1, 0
P = 0, 1, 1, 0

[fiber]
g0 = toral:2,1,1,1
g1 = stdmap:0.3

[skew]
depth = 40
assign = 0, 1

[run]
seed = 7
n_orbits = 20
n_steps = 500
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


def test_exponent_of_a_large_matrix_exits_0(tmp_path, capsys):
    # 16 steps of this matrix overflowed mat_norm: a math domain error and a traceback
    cfg = IDENTITY_CFG.replace("toral:1,0,0,1", "toral:70000,1,69999,1")
    rc = main(["exponent", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert float(_read_csv(tmp_path / "exponent.csv")[0]["lambda_plus_mean"]) > 11.0


def test_exponent_runs_on_a_deep_table_with_few_words(tmp_path, capsys):
    # the words were found among all 2**40 candidates, and looked up in a 2**40-entry array
    start = time.perf_counter()
    rc = main(["exponent", "--config", _write(tmp_path, SWAP_DEPTH40_CFG), "--out", str(tmp_path)])
    assert rc == 0 and time.perf_counter() - start < 2.0
    assert capsys.readouterr().out.startswith("exponent mean=")


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


@pytest.mark.parametrize("seed, direction", [(92, "stable"), (481, "unstable")])
def test_holonomy_partner_differs_on_its_free_side(seed, direction):
    # the partner was checked on the side it shares with x, so at these
    # seeds it equalled x on all 8 indices of the side it takes from w
    x, y = cli._holonomy_pair(cat_system(), seed, direction)
    free, shared = (range(-8, 0), range(0, 9)) if direction == "stable" else (
        range(1, 9), range(-8, 1))
    assert any(y.symbol(j) != x.symbol(j) for j in free)
    assert all(y.symbol(j) == x.symbol(j) for j in shared)


def test_deep_table_exits_2_within_a_second(tmp_path, capsys):
    cfg = CAT_CFG + "\n[skew]\ndepth = 40\nassign = 0, 1\n"
    start = time.perf_counter()
    rc = main(["exponent", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 2 and time.perf_counter() - start < 1.0
    assert "[skew].assign must map all" in capsys.readouterr().err
    assert not (tmp_path / "exponent.csv").exists()


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
        ("stdmap:nan", "g0 = toral:2,1,1,1"),  # exited 0 with mean=nan
        ("twist:0.25,0.25,0.2,inf", "g1 = twist:0.25,0.25,0.2,0.5"),
    ],
)
def test_non_integral_map_spec_exits_2(tmp_path, capsys, spec, replaces):
    cfg = TWISTED_CRITERION_CFG.replace(replaces, replaces.split("=")[0] + "= " + spec)
    assert spec in cfg
    rc = main(["exponent", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert spec in capsys.readouterr().err
    assert not (tmp_path / "exponent.csv").exists()


SWEEP_AND_POINT_CFG = """
[sweep]
T_values = 0
generator_word = 1
center = 0.25, 0.25

[holonomy]
point = 0.3, 0.7
"""


@pytest.mark.parametrize("command", ["bunching", "holonomy"])
def test_run_grid_leaves_the_bunching_fiber_grid_alone(tmp_path, capsys, command):
    # [run] grid is the pinching grid; bunching's fibre grid is its own
    # fiber_grid parameter, which no config key sets.  On this system a
    # 5 x 5 fibre grid gives a different margin from the default 16 x 16.
    cfg = TWISTED_CRITERION_CFG + SWEEP_AND_POINT_CFG
    outputs = []
    for name, text in (("plain", cfg.replace("grid = 16\n", "")),
                       ("grid", cfg.replace("grid = 16", "grid = 5"))):
        out = tmp_path / name
        assert main([command, "--config", _write(tmp_path, text, name + ".cfg"),
                     "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, (out / (command + ".csv")).read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "command, line, bad, key",
    [
        ("sweep", "generator_word = 1", "generator_word = 1, 0", "sweep.generator_word"),
        ("sweep", "generator_word = 1", "generator_word = a", "sweep.generator_word"),
        ("criterion", "p_word = 0", "p_word = a", "criterion.p_word"),
        ("holonomy", "point = 0.3, 0.7", "point = 0.3", "holonomy.point"),
        ("sweep", "center = 0.25, 0.25", "center = 0.25", "sweep.center"),
        ("holonomy", "point = 0.3, 0.7", "point = 0.3, 0.7, 0.9", "holonomy.point"),
        ("holonomy", "point = 0.3, 0.7", "point = inf, 0.7", "holonomy.point"),
        ("criterion", "n_steps = 300", "n_steps = 0", "run.n_steps"),
        ("criterion", "grid = 16", "grid = 0", "run.grid"),
        ("criterion", "seed = 3", "seed = 3\nj_max = 0", "run.j_max"),
        ("criterion", "seed = 3", "seed = 3\nepsilon_twist = nan", "run.epsilon_twist"),
        ("criterion", "seed = 3", "seed = 3\nn_K = 0", "run.n_K"),
        ("criterion", "seed = 3", "seed = 3\nframe_depth = 0", "run.frame_depth"),
        ("criterion", "seed = 3", "seed = 3\neps_K = inf", "run.eps_K"),
        ("bunching", "seed = 3", "seed = 3\nbeta = nan", "run.beta"),
        ("holonomy", "seed = 3", "seed = 3\ntol = nan", "run.tol"),
        ("holonomy", "seed = 3", "seed = 3\nn_max = 0", "run.n_max"),
        ("sweep", "center = 0.25, 0.25", "center = 0.25, 0.25\nradius = -0.2", "sweep.radius"),
        ("sweep", "center = 0.25, 0.25", "center = 0.25, 0.25\nradius = nan", "sweep.radius"),
        ("sweep", "center = 0.25, 0.25", "center = 0.25, 0.25\nradius = 0", "sweep.radius"),
        ("sweep", "center = 0.25, 0.25", "center = 0.25, 0.25\nradius = 0.3", "sweep.radius"),
        ("exponent", "probs = 0.5, 0.5", "probs = nan, 0.5", "[base].probs"),
        ("exponent", "type = bernoulli\nd = 2\nprobs = 0.5, 0.5",
         "type = markov\nd = 2\nP = nan, 0.5, 1, 0\ntransitions = 1, 1, 1, 0", "matrix P"),
        ("exponent", "assign = 0, 2", "family = holder\nK0 = nan", "K0"),
        ("exponent", "assign = 0, 2", "family = holder\neps = inf", "eps"),
        ("exponent", "assign = 0, 2", "family = holder\nalpha = -1", "alpha"),
        ("exponent", "assign = 0, 2", "family = holder\nalpha = 0", "alpha"),
        ("exponent", "assign = 0, 2", "family = holder\nwindow = -3", "window"),
        ("bunching", "assign = 0, 2", "family = holder\nwindow = -3", "window"),
        ("bunching", "assign = 0, 2", "family = holder\nK0 = nan", "K0"),
        ("holonomy", "assign = 0, 2", "family = holder\nK0 = nan", "K0"),
        ("criterion", "p_word = 0", "p_word = 5", "symbol 5 out of range"),
        ("criterion", "z_symbol = 1", "z_symbol = 5", "symbol 5 out of range"),
        ("criterion", "p_word = 0", "p_word = 5", "criterion.p_word"),
        ("criterion", "z_symbol = 1", "z_symbol = 5", "criterion.z_symbol"),
        ("sweep", "assign = 0, 2", "family = holder", "[skew].family"),
        ("sweep", "T_values = 0", "T_values = inf", "sweep.T_values"),
        ("sweep", "T_values = 0", "T_values = nan", "sweep.T_values"),
        ("sweep", "T_values = 0", "T_values = ", "sweep.T_values"),
        *(
            ("criterion", "g2 = compose:0,1", "g2 = compose:0,1\n%s = stdmap:0.5" % key,
             "unknown key fiber." + key)
            for key in ("g01", "g\u00b2", "g\u0661")
        ),
        *(
            (command, line, bad, key)
            for command in ("criterion", "sweep")
            for line, bad, key in (
                ("p_word = 0", "p_word = 0,1", "criterion.p_word"),
                ("z_symbol = 1", "z_symbol = 0", "criterion.z_symbol"),
                ("z_index = 1", "z_index = 0", "criterion.z_index"),
                ("z_index = 1", "z_index = -2", "criterion.z_index"),
                ("i = 2", "i = 1", "criterion.i"),
            )
        ),
    ],
)
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, command, line, bad, key):
    # these exited 1 with a ValueError or IndexError traceback, or exited 0:
    # the three-number point dropped its third entry, a zero grid gave a nan
    # integral, a nan beta a satisfied bunching, a bad radius a row error;
    # the zero [run] counts and nan floats read as a domain error or a verdict;
    # nan base weights, non-finite or non-positive Holder values, a negative
    # window and non-finite twist angles exited 0, 1 or with a traceback, as
    # did symbols out of the alphabet, whose error then named the symbol but
    # not the key; a sweep of a Holder family wrote a row error at T = 0 and
    # raised AttributeError at any other T; an empty T_values list wrote a
    # header-only sweep.csv and exited 0; a p_word, z_symbol, z_index or i
    # that cannot build the holonomy loop gave the library's error without
    # the key; a [fiber] key g01 or g١ (an Arabic-Indic one) silently
    # replaced g1, and g² ended in a ValueError traceback
    cfg = (TWISTED_CRITERION_CFG + SWEEP_AND_POINT_CFG).replace(line, bad)
    assert bad in cfg
    rc = main([command, "--config", _write(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not list(tmp_path.glob("*.csv"))


def test_domain_error_exits_1(tmp_path, capsys):
    # rotation fibers: pinching fails, so the twisting stage is a domain error
    cfg = TWISTED_CRITERION_CFG.replace("g0 = toral:2,1,1,1", "g0 = toral:0,-1,1,0")
    cfg = cfg.replace("g1 = twist:0.25,0.25,0.2,0.5\ng2 = compose:0,1", "g1 = toral:0,-1,1,0")
    cfg = cfg.replace("[skew]\nassign = 0, 2\n", "")
    rc = main(["criterion", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_holder_exponent_that_overflows_exits_1(tmp_path, capsys):
    # it printed "exponent mean=nan stderr=nan", wrote a nan row and exited 0
    cfg = CAT_CFG.replace("metric_base = 0.5", "metric_base = 0.0625")
    cfg += "\n[skew]\nfamily = holder\nK0 = 1e25\n"
    cfg = cfg.replace("seed = 3\n", "seed = 3\nn_orbits = 4\nn_steps = 100\n")
    rc = main(["exponent", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: orbit ") and "not finite" in err and not out
    assert not list(tmp_path.glob("*.csv"))


def test_holonomy_whose_envelope_underflows_exits_1(tmp_path, capsys):
    # at beta 200 the bunching margin's square underflows to 0, and fitting
    # the envelope ended in a ZeroDivisionError traceback; at beta 132 an
    # increment over its subnormal divisor overflowed, and the command wrote
    # inf and nan envelopes and exited 0; at beta 130 the envelope fits
    cfg = CAT_CFG.replace("metric_base = 0.5", "metric_base = 0.0625")
    cfg += "\n[skew]\nfamily = holder\nK0 = 0.5\neps = 0.05\n"
    for beta, want in ((130, 0), (132, 1), (200, 1)):
        out_dir = tmp_path / str(beta)
        text = cfg.replace("seed = 3\n", "seed = 3\nbeta = %d\n" % beta)
        rc = main(["holonomy", "--config", _write(tmp_path, text), "--out", str(out_dir)])
        assert rc == want
        out, err = capsys.readouterr()
        if want:
            assert err.startswith("error: holonomy envelope cannot be fitted")
            assert err.count("\n") == 1 and not out
            assert not out_dir.exists()
        else:
            assert out.startswith("holonomy stopped_at=") and not err
            assert (out_dir / "holonomy.csv").exists()


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


def _run_targets():
    """The targets the commands hand their [run] keys to: every ``_run_options(cfg, X)``."""
    tree = ast.parse(inspect.getsource(cli))
    return {
        getattr(cli, node.args[1].id)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_run_options"
        and isinstance(node.args[1], ast.Name)
    }


def test_every_run_key_reaches_a_command_target():
    params = set()
    for target in _run_targets():
        params |= set(inspect.signature(target).parameters)
    assert set(RUN_KEYS) <= params


def test_cli_reads_no_run_key_with_a_default():
    # the library owns every [run] default; the CLI passes only the keys set
    tree = ast.parse(inspect.getsource(cli))
    reads = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and (node.func.attr == "get_run" or any(
            isinstance(a, ast.Constant) and a.value == "run" for a in node.args))
    ]
    assert reads  # cfg.get_run("seed") for the holonomy pair
    for node in reads:
        n_args = 1 if node.func.attr == "get_run" else 2
        assert len(node.args) <= n_args and not node.keywords, ast.unparse(node)
    assert "param.default" not in inspect.getsource(cli)
