"""Line-based experiment configuration.

Format: ``[section]`` headers with ``key = value`` lines; ``#`` starts a
comment; lists are comma-separated; fiber maps are given as
``kind:param1,param2,...`` specs under indexed keys g0, g1, ..., each index
in ASCII decimal without a leading zero.  The format is deliberately
diff-friendly so configs double as experiment provenance.
"""

import math
import re
from dataclasses import dataclass, field

from . import fiber_maps as fm
from .base_shift import BaseMeasure, PeriodicPoint, ShiftSpace, homoclinic_point
from .errors import ConfigurationError
from .holonomy import HolonomyQuery
from .skew import HolderFamily, LocallyConstantFamily, SkewSystem, admissible_words

# Every [run] key, its type and its least value (counts >= 1, floats > 0 and
# finite, seed any integer).  The commands pass each key a config sets to the
# library parameter of that name, so the library owns every default.
_COUNT, _POSITIVE = (int, 1), (float, 0.0)
RUN_KEYS = {
    "seed": (int, None),
    "n_orbits": _COUNT, "n_steps": _COUNT, "n_max": _COUNT, "grid": _COUNT,
    "j_max": _COUNT, "n_K": _COUNT, "frame_depth": _COUNT,
    "tol": _POSITIVE, "beta": _POSITIVE, "delta_pinch": _POSITIVE,
    "epsilon_twist": _POSITIVE, "fraction_required": _POSITIVE, "eps_K": _POSITIVE,
}

_ALLOWED_KEYS = {
    "base": {"type", "d", "probs", "P", "metric_base", "transitions"},
    "fiber": None,  # g0..gN, validated by pattern
    "skew": {"family", "depth", "assign", "K0", "eps", "alpha", "window"},
    "run": RUN_KEYS,
    "criterion": {"p_word", "z_symbol", "z_index", "i"},
    "sweep": {"T_values", "generator_word", "center", "radius"},
    "holonomy": {"direction", "point"},
}


@dataclass
class ExperimentConfig:
    sections: dict = field(default_factory=dict)
    lines: dict = field(default_factory=dict)  # (section, key) -> line number

    def has(self, section, key):
        return key in self.sections.get(section, {})

    def raw(self, section, key, default=None, required=False):
        sec = self.sections.get(section, {})
        if key not in sec:
            if required:
                raise ConfigurationError("%s.%s required" % (section, key))
            return default
        return sec[key]

    def get(self, section, key, typ, default=None, required=False):
        """The value of key as typ (int or float), default when unset."""
        v = self.raw(section, key, default, required)
        if v is None or isinstance(v, typ):
            return v
        try:
            return typ(v)
        except ValueError:
            kind = "an integer" if typ is int else "a number"
            raise ConfigurationError("%s.%s must be %s, got %r" % (section, key, kind, v))

    def get_run(self, key):
        """The [run] value of key, typed by RUN_KEYS, or None when unset."""
        return self.get("run", key, RUN_KEYS[key][0])

    def get_list(self, section, key, conv=float, default=None, required=False):
        v = self.raw(section, key, None, required)
        if v is None:
            return default
        try:
            return [conv(part.strip()) for part in v.split(",") if part.strip() != ""]
        except ValueError:
            raise ConfigurationError("%s.%s has a malformed list: %r" % (section, key, v))

    def get_point(self, section, key, default):
        """A fiber point: exactly two finite numbers u, v."""
        point = tuple(self.get_list(section, key, float, default))
        if len(point) != 2 or not all(math.isfinite(c) for c in point):
            raise ConfigurationError("%s.%s must list two finite numbers u, v" % (section, key))
        return point

    def get_word(self, section, key):
        """A required word of symbols: comma-separated, or one digit per symbol."""
        v = str(self.raw(section, key, required=True))
        parts = [s for s in v.split(",") if s.strip() != ""] if "," in v else list(v)
        try:
            return tuple(int(s) for s in parts)
        except ValueError:
            raise ConfigurationError("%s.%s must be a word of symbols, got %r" % (section, key, v))

    def __eq__(self, other):
        return isinstance(other, ExperimentConfig) and self.sections == other.sections


def parse_config(text):
    """Parse and validate config text; diagnostics name section, key, and line."""
    cfg = ExperimentConfig()
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _ALLOWED_KEYS:
                raise ConfigurationError(
                    "line %d: unknown section [%s]" % (lineno, section)
                )
            cfg.sections.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigurationError("line %d: expected key = value" % lineno)
        if section is None:
            raise ConfigurationError("line %d: key outside any section" % lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        allowed = _ALLOWED_KEYS[section]
        if allowed is None:
            if not re.fullmatch("g(0|[1-9][0-9]*)", key):
                raise ConfigurationError(
                    "line %d: unknown key %s.%s" % (lineno, section, key)
                )
        elif key not in allowed:
            raise ConfigurationError(
                "line %d: unknown key %s.%s" % (lineno, section, key)
            )
        if key in cfg.sections[section]:
            raise ConfigurationError(
                "line %d: duplicate key %s.%s (first set on line %d)"
                % (lineno, section, key, cfg.lines[(section, key)])
            )
        cfg.sections[section][key] = value
        cfg.lines[(section, key)] = lineno
    _validate(cfg)
    return cfg


def _validate(cfg):
    kind = cfg.raw("base", "type", required=True)
    if kind not in ("bernoulli", "markov"):
        raise ConfigurationError("[base].type must be bernoulli or markov")
    d = cfg.get("base", "d", int, required=True)
    if kind == "bernoulli":
        probs = cfg.get_list("base", "probs", float, required=True)
        if len(probs) != d:
            raise ConfigurationError("[base].probs must list %d weights" % d)
        if not (all(p > 0 for p in probs) and abs(sum(probs) - 1.0) <= 1e-12):
            raise ConfigurationError(
                "[base].probs must be positive and sum to 1"
            )
    else:
        P = cfg.get_list("base", "P", float, required=True)
        if len(P) != d * d:
            raise ConfigurationError("[base].P must list %d entries row-major" % (d * d))
    cfg.raw("run", "seed", required=True)
    for key in cfg.sections["run"]:
        v, (typ, least) = cfg.get_run(key), RUN_KEYS[key]
        if typ is int and least is not None and not v >= least:
            raise ConfigurationError("run.%s must be >= %d, got %d" % (key, least, v))
        if typ is float and not (v > least and math.isfinite(v)):
            raise ConfigurationError("run.%s must be positive and finite, got %r" % (key, v))


def serialize_config(cfg):
    out = []
    for section in sorted(cfg.sections):
        out.append("[%s]" % section)
        for key in sorted(cfg.sections[section]):
            out.append("%s = %s" % (key, cfg.sections[section][key]))
        out.append("")
    return "\n".join(out)


def parse_map_spec(spec, generators=None):
    """Build a fiber map from a ``kind:params`` spec string."""
    if ":" not in spec:
        raise ConfigurationError("map spec %r lacks 'kind:params'" % spec)
    kind, _, params = spec.partition(":")
    kind = kind.strip()
    try:
        vals = [float(p) for p in params.split(",") if p.strip() != ""]
    except ValueError:
        raise ConfigurationError("map spec %r has malformed parameters" % spec)
    if not all(math.isfinite(v) for v in vals):
        raise ConfigurationError("map spec %r has non-finite parameters" % spec)
    if kind in ("toral", "compose") and not all(v.is_integer() for v in vals):
        raise ConfigurationError("map spec %r needs integer entries" % spec)
    if kind == "toral":
        if len(vals) != 4:
            raise ConfigurationError("toral spec needs 4 entries")
        return fm.ToralAutomorphism([int(v) for v in vals])
    if kind == "stdmap":
        if len(vals) != 1:
            raise ConfigurationError("stdmap spec needs 1 entry")
        return fm.StandardMap(vals[0])
    if kind == "twist":
        if len(vals) != 4:
            raise ConfigurationError("twist spec needs center_u,center_v,radius,angle")
        return fm.LocalizedTwist((vals[0], vals[1]), vals[2], vals[3])
    if kind == "compose":
        if generators is None:
            raise ConfigurationError("compose spec outside a generator list")
        idxs = [int(v) for v in vals]
        for ix in idxs:
            if not 0 <= ix < len(generators) or generators[ix] is None:
                raise ConfigurationError("compose spec references missing generator %d" % ix)
        return fm.Composite([generators[ix] for ix in idxs])
    raise ConfigurationError("unknown map kind %r" % kind)


def build_generators(cfg):
    sec = cfg.sections.get("fiber", {})
    if not sec:
        raise ConfigurationError("[fiber] section with g0.. generator specs required")
    n = max(int(k[1:]) for k in sec) + 1
    generators = [None] * n
    for k in sorted(sec, key=lambda k: int(k[1:])):
        generators[int(k[1:])] = parse_map_spec(sec[k], generators)
    if any(g is None for g in generators):
        raise ConfigurationError("generator indices must be contiguous from g0")
    return generators


_MAX_COUNT = 10 ** 18  # larger word counts are reported as "10^18 or more"


def _count_words(space, length):
    """min(_MAX_COUNT, the number of admissible words of the given length >= 1).

    The row sums of the (length - 1)-th power of the transition matrix, by
    repeated squaring with capped entries: O(log length) small products.
    """
    d = range(space.alphabet_size)

    def product(a, b):
        return [[min(_MAX_COUNT, sum(a[i][k] * b[k][j] for k in d)) for j in d] for i in d]

    step = [[int(ok) for ok in row] for row in space.transitions]
    power = [[int(i == j) for j in d] for i in d]
    n = length - 1
    while n:
        if n & 1:
            power = product(power, step)
        step, n = product(step, step), n >> 1
    return min(_MAX_COUNT, sum(map(sum, power)))


def build_system(cfg):
    """Assemble the SkewSystem described by a parsed config."""
    d = cfg.get("base", "d", int, required=True)
    trans = cfg.get_list("base", "transitions", int)
    transitions = None
    if trans is not None:
        if len(trans) != d * d:
            raise ConfigurationError("[base].transitions must list %d entries" % (d * d))
        transitions = tuple(
            tuple(bool(trans[r * d + c]) for c in range(d)) for r in range(d)
        )
    space = ShiftSpace(
        alphabet_size=d,
        transitions=transitions,
        metric_base=cfg.get("base", "metric_base", float, 0.5),
    )
    if cfg.raw("base", "type") == "bernoulli":
        measure = BaseMeasure("bernoulli", probs=tuple(cfg.get_list("base", "probs", float)))
    else:
        P = cfg.get_list("base", "P", float)
        measure = BaseMeasure(
            "markov", P=tuple(tuple(P[r * d + c] for c in range(d)) for r in range(d))
        )
    family_kind = cfg.raw("skew", "family", "locally_constant")
    if family_kind == "locally_constant":
        generators = build_generators(cfg)
        depth = cfg.get("skew", "depth", int, 1)
        if depth < 1:
            raise ConfigurationError("[skew].depth must be >= 1, got %d" % depth)
        # count the words before listing them: the listing holds every word, and
        # a full shift has d^depth of them
        n_words = _count_words(space, depth)
        shown = "%d" % n_words if n_words < _MAX_COUNT else "10^18 or more"
        assign = cfg.get_list("skew", "assign", int)
        if assign is None:
            if len(generators) == n_words:
                assign = list(range(n_words))
            else:
                raise ConfigurationError(
                    "[skew].assign required: %s admissible words, %d generators"
                    % (shown, len(generators))
                )
        if len(assign) != n_words:
            raise ConfigurationError(
                "[skew].assign must map all %s admissible depth-%d words"
                % (shown, depth)
            )
        table = {}
        for w, gi in zip(admissible_words(space, depth), assign):
            if not 0 <= gi < len(generators):
                raise ConfigurationError("[skew].assign references missing generator %d" % gi)
            table[w] = generators[gi]
        family = LocallyConstantFamily(depth, table)
    elif family_kind == "holder":
        family = HolderFamily(
            K0=cfg.get("skew", "K0", float, 0.5),
            eps=cfg.get("skew", "eps", float, 0.05),
            alpha=cfg.get("skew", "alpha", float, 1.0),
            space=space,
            window=cfg.get("skew", "window", int, 16),
        )
    else:
        raise ConfigurationError("[skew].family must be locally_constant or holder")
    return SkewSystem(space, measure, family)


def criterion_inputs(cfg, system):
    """Periodic point, homoclinic point and transition time; bad values' errors name the key."""
    p = PeriodicPoint(cfg.get_word("criterion", "p_word"))
    z_symbol = cfg.get("criterion", "z_symbol", int, required=True)
    z_index = cfg.get("criterion", "z_index", int, 1)
    i = cfg.get("criterion", "i", int, z_index + 1)
    key = "p_word"
    try:
        p_seq = p.point(system.space)
        key = "z_symbol" if p.period == 1 else "p_word"  # homoclinic_point needs period 1
        z = homoclinic_point(system.space, p, z_symbol, z_index)
        for key, pair in (("z_index", ("unstable", p_seq, z)), ("i", ("stable", z.shift(i), p_seq))):
            HolonomyQuery(*pair)  # the two queries build_holonomy_loop makes
    except ConfigurationError as exc:
        raise ConfigurationError("criterion.%s: %s" % (key, exc))
    return p, z, i
