"""Config parsing, validation, map specs, and system assembly."""

import pytest

import skewlab as sl
import skewlab.fiber_maps as fm
from skewlab.config import (
    build_system,
    criterion_inputs,
    parse_config,
    parse_map_spec,
    serialize_config,
)
from skewlab.errors import ConfigurationError

BASIC = """
[base]
type = bernoulli
d = 2
probs = 0.5, 0.5
metric_base = 0.5

[fiber]
g0 = toral:2,1,1,1
g1 = toral:2,1,1,1

[run]
seed = 7
"""


def test_parse_basic_config():
    cfg = parse_config(BASIC)
    assert cfg.raw("base", "type") == "bernoulli"
    assert cfg.get_int("base", "d") == 2
    assert cfg.get_float("base", "metric_base") == 0.5
    assert cfg.get_list("base", "probs") == [0.5, 0.5]
    assert cfg.get_int("run", "seed") == 7


def test_comments_and_blank_lines_ignored():
    cfg = parse_config(BASIC.replace("seed = 7", "seed = 7  # the run seed\n\n"))
    assert cfg.get_int("run", "seed") == 7


def test_unknown_section_reports_line_number():
    with pytest.raises(ConfigurationError, match=r"line 2: unknown section"):
        parse_config("\n[nope]\nx = 1\n")


def test_unknown_key_reports_line_number():
    bad = BASIC.replace("seed = 7", "seed = 7\nbogus = 1")
    with pytest.raises(ConfigurationError, match=r"line \d+: unknown key run.bogus"):
        parse_config(bad)


def test_duplicate_key_rejected_naming_both_lines():
    # a second g0 must not silently replace the cat map (line 9) on line 11
    text = BASIC.replace("g1 = toral:2,1,1,1", "g1 = toral:2,1,1,1\ng0 = toral:1,0,0,1")
    with pytest.raises(ConfigurationError, match=r"line 11: duplicate key fiber\.g0 .*line 9"):
        parse_config(text)
    with pytest.raises(ConfigurationError, match=r"line 15: duplicate key run\.seed .*line 13"):
        parse_config(BASIC + "[run]\nseed = 8\n")


@pytest.mark.parametrize(
    "section,key",
    [("run", "probe_bins"), ("run", "probe_iters"),
     ("holonomy", "pair_seed"), ("holonomy", "pair_stream")],
)
def test_unread_keys_rejected(section, key):
    text = BASIC + "[%s]\n%s = 1\n" % (section, key)
    message = r"line %d: unknown key %s\.%s" % (len(text.splitlines()), section, key)
    with pytest.raises(ConfigurationError, match=message):
        parse_config(text)


def test_key_outside_section_rejected():
    with pytest.raises(ConfigurationError, match="outside any section"):
        parse_config("seed = 7\n")


def test_missing_required_seed():
    bad = "\n".join(line for line in BASIC.splitlines() if not line.startswith("seed"))
    with pytest.raises(ConfigurationError, match="run.seed required"):
        parse_config(bad)


def test_probs_must_sum_to_one():
    with pytest.raises(ConfigurationError, match="sum to 1"):
        parse_config(BASIC.replace("0.5, 0.5", "0.5, 0.4"))


def test_probs_length_must_match_alphabet():
    with pytest.raises(ConfigurationError, match="2 weights"):
        parse_config(BASIC.replace("0.5, 0.5", "0.25, 0.25, 0.5"))


def test_markov_requires_full_matrix():
    text = BASIC.replace("type = bernoulli", "type = markov").replace(
        "probs = 0.5, 0.5", "P = 0.9, 0.1, 0.3"
    )
    with pytest.raises(ConfigurationError, match="4 entries"):
        parse_config(text)


def test_negative_tolerance_rejected():
    bad = BASIC.replace("seed = 7", "seed = 7\ntol = -1e-9")
    with pytest.raises(ConfigurationError, match="tol must be positive"):
        parse_config(bad)


def test_malformed_number_message_names_key():
    cfg = parse_config(BASIC.replace("metric_base = 0.5", "metric_base = half"))
    with pytest.raises(ConfigurationError, match="base.metric_base must be a number"):
        build_system(cfg)


def test_serialize_round_trip():
    cfg = parse_config(BASIC)
    text = serialize_config(cfg)
    assert parse_config(text) == cfg


def test_parse_map_spec_kinds():
    m = parse_map_spec("toral:2,1,1,1")
    assert isinstance(m, fm.ToralAutomorphism)
    assert m.matrix == (2.0, 1.0, 1.0, 1.0)
    s = parse_map_spec("stdmap:1.5")
    assert isinstance(s, fm.StandardMap)
    assert s.K == 1.5
    t = parse_map_spec("twist:0.25,0.25,0.2,0.5")
    assert isinstance(t, fm.LocalizedTwist)
    assert t.center == (0.25, 0.25) and t.radius == 0.2 and t.angle == 0.5
    c = parse_map_spec("compose:0,1", generators=[m, t])
    assert isinstance(c, fm.Composite)
    assert c.factors == (m, t)


@pytest.mark.parametrize(
    "spec",
    [
        "toral",  # no colon
        "toral:2,1,1",  # arity
        "stdmap:1,2",
        "twist:0.5",
        "toral:a,b,c,d",  # malformed numbers
        "spiral:1.0",  # unknown kind
        "compose:5",  # missing generator reference
        "toral:2.5,1,1,1",  # non-integral entries
        "toral:nan,1,1,1",
        "compose:0.9",
    ],
)
def test_parse_map_spec_rejects(spec):
    with pytest.raises(ConfigurationError):
        parse_map_spec(spec, generators=[parse_map_spec("stdmap:1.0")])


def test_compose_outside_generator_list_rejected():
    with pytest.raises(ConfigurationError, match="outside a generator list"):
        parse_map_spec("compose:0")


def test_build_system_locally_constant():
    system = build_system(parse_config(BASIC))
    assert system.is_locally_constant
    assert system.space.alphabet_size == 2
    x = sl.periodic_point(system.space, (0,))
    assert system.fiber_map_at(x).matrix == (2.0, 1.0, 1.0, 1.0)


def test_build_system_composite_generator():
    text = BASIC.replace(
        "g1 = toral:2,1,1,1",
        "g2 = compose:0,1\ng1 = twist:0.25,0.25,0.2,0.5",
    ).replace("g0 = toral:2,1,1,1", "g0 = toral:2,1,1,1\n")
    # three generators but only two depth-1 words: assignment must be explicit
    text += "\n[skew]\nassign = 0, 2\n"
    system = build_system(parse_config(text))
    x1 = sl.periodic_point(system.space, (1,))
    assert isinstance(system.fiber_map_at(x1), fm.Composite)


def test_build_system_gap_in_generators_rejected():
    text = BASIC.replace("g1 = toral:2,1,1,1", "g2 = toral:2,1,1,1")
    with pytest.raises(ConfigurationError, match="contiguous"):
        build_system(parse_config(text))


def test_build_system_holder_family():
    text = """
[base]
type = bernoulli
d = 2
probs = 0.5, 0.5
metric_base = 0.0625

[skew]
family = holder
K0 = 0.5
eps = 0.05

[run]
seed = 1
"""
    system = build_system(parse_config(text))
    assert not system.is_locally_constant
    assert system.family.K0 == 0.5 and system.family.eps == 0.05


def test_build_system_markov_sft():
    text = """
[base]
type = markov
d = 2
P = 0.9, 0.1, 1.0, 0.0
transitions = 1, 1, 1, 0

[fiber]
g0 = toral:2,1,1,1
g1 = stdmap:0.3

[run]
seed = 2

[skew]
depth = 2
assign = 0, 1, 1
"""
    # the word (1, 1) is inadmissible, so depth 2 has three words
    system = build_system(parse_config(text))
    assert system.space.transitions == ((True, True), (True, False))
    x = sl.periodic_point(system.space, (0,))
    assert system.fiber_map_at(x).matrix == (2.0, 1.0, 1.0, 1.0)


def test_criterion_inputs():
    text = BASIC + """
[criterion]
p_word = 0
z_symbol = 1
z_index = 1
i = 2
"""
    cfg = parse_config(text)
    system = build_system(cfg)
    p, z, i = criterion_inputs(cfg, system)
    assert p.word == (0,)
    assert z.symbol(1) == 1 and z.symbol(0) == 0 and z.symbol(2) == 0
    assert i == 2


def test_criterion_inputs_comma_word_and_defaults():
    text = BASIC + """
[criterion]
p_word = 0,
z_symbol = 1
"""
    cfg = parse_config(text)
    system = build_system(cfg)
    p, z, i = criterion_inputs(cfg, system)
    assert p.word == (0,)
    assert i == 2  # defaults to z_index + 1
    cfg2 = parse_config(text.replace("p_word = 0,", "p_word = 0,1"))
    with pytest.raises(ConfigurationError, match="fixed point"):
        criterion_inputs(cfg2, system)


def test_criterion_inputs_requires_p_word():
    cfg = parse_config(BASIC)
    with pytest.raises(ConfigurationError, match="criterion.p_word required"):
        criterion_inputs(cfg, build_system(cfg))
