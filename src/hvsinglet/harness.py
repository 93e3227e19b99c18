"""Config ingestion, the closed-form verification suite, parameter sweeps, and
JSON/CSV emission.

Output schemas are frozen: scans emit CSV with the header
``variable,value_of_variable,inequality,value,bound,margin,violated`` and the
verification report is a JSON document with top-level keys ``suite``,
``claims``, ``seed``, ``versions``.  Reports contain no timestamps or timing,
so a rerun with the same seed produces byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import platform
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .geometry import (
    Z, UnitVector3, chsh_optimal_settings, integer, make_rng, member, real, sample_unit_batch,
    sample_unit_uniform, triple,
)
from .models import (
    CapP,
    ConstantP,
    FIELD_READERS,
    FSpec,
    HiddenState,
    ModelFamily,
    ModelParams,
    Settings,
    _check_hidden,
    _check_reads,
    _conditional_shift,
    coeffs,
    joint,
    outcome_dependence_witness,
    sample_hidden,
    sample_hidden_batch,
    table_cells,
)
from .correlators import (
    MIN_MC_SAMPLES,
    _pool_map,
    _shard_counts,
    _sphere_moments,
    analytic_correlator,
    mc_correlator,
    sphere_moment_oracle,
)
from .inequalities import (
    BRANCIARD_QM_ARGMAX_SIN,
    BRANCIARD_QM_MAX_MARGIN,
    BRANCIARD_QM_WINDOW_HI_SIN,
    CHSH_THV_SLOPE_DERIVED,
    CHSH_THV_SLOPE_QUOTED,
    ETA_MAX_BRANCIARD_FHV,
    ETA_MAX_CHSH_FHV,
    ETA_MAX_LEGGETT_FHV,
    INEQUALITIES,
    LEGGETT_QM_ARGMAX_PHI,
    LEGGETT_QM_MAX_MARGIN,
    PM_MAX_CHSH_SHV,
    SCAN_VARIABLES,
    ZETA_MAX_BRANCIARD_THV,
    ZETA_MAX_LEGGETT_THV,
    ZETA_ROOT_CHSH_THV_DERIVED,
    ZETA_ROOT_CHSH_THV_QUOTED,
    _check_margin,
    _check_scan,
    _max_violations,
    _value_function,
    _violation_windows,
    bhv_chsh_search,
    branciard_fhv_argmax_sin,
    branciard_fhv_window_center_derived,
    branciard_fhv_window_center_quoted,
    branciard_fhv_window_sin_derived,
    chsh_value,
    correlator_fn,
    leggett_fhv_window_sin,
    lhv_branciard_search,
    lhv_leggett_search,
    margin,
    max_violation,
    scan_values,
    threshold,
    violation_window,
)

PI = math.pi

SCAN_CSV_HEADER = "variable,value_of_variable,inequality,value,bound,margin,violated"

TASKS = ("prob", "correlator", "chsh", "leggett", "branciard", "scan", "verify")

OUTPUT_FORMATS = ("json", "csv")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# ------------------------------ config parsing ------------------------------


# The parsers turn config text into numbers and leave every rule to the
# `geometry` checkers; `parse_config` turns their ValueError into ConfigError.


def _number(value):
    """A string as the float it spells, if any; anything else as it is."""
    try:
        return float(value) if isinstance(value, str) else value
    except ValueError:
        return value


def parse_number(value, what: str, lo: float = -math.inf) -> float:
    """A finite float of at least ``lo`` from a JSON number or numeric string."""
    return float(real(_number(value), what, lo))


def parse_integer(value, what: str, low: float = -math.inf) -> int:
    """An integer of at least ``low`` from a JSON number or numeric string
    that is integral (1e5 and 100000.0 are 100000)."""
    number = real(_number(value), what)
    return integer(int(number) if float(number).is_integer() else number, what, low)


def parse_angle(value, what: str = "angle") -> float:
    """Angles are radians by default; strings may carry a 'deg' or 'rad'
    suffix to make the unit explicit."""
    text = value.strip().lower() if isinstance(value, str) else ""
    if text.endswith(("deg", "rad")):
        number = parse_number(text[:-3], what)
        return math.radians(number) if text.endswith("deg") else number
    return parse_number(value, what)


def _triple(value, what: str) -> tuple[float, float, float]:
    if isinstance(value, (list, tuple)) and len(value) == 3:
        value = [_number(c) for c in value]
    return tuple(float(c) for c in triple(value, what))


def parse_unit_vector(value, what: str = "vector") -> UnitVector3:
    return UnitVector3.from_array(_triple(value, what), what)


def _path(value, what: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _block(cls, what: str):
    """Parser of a nested block whose entries fill dataclass ``cls``."""
    return lambda block, _: cls(**_read(block, what))


def _p_field(block, _) -> ConstantP | CapP:
    kind = block.get("kind", "constant") if isinstance(block, dict) else "constant"
    member(kind, "p kind", ("constant", "cap"))
    return (CapP if kind == "cap" else ConstantP)(**_read(block, f"{kind} p"))


def parse_model(block) -> ModelParams:
    """The model a config ``model`` block describes; its family (qm when
    absent) decides which of the other keys it reads."""
    name = str(block.get("family", "qm")).lower() if isinstance(block, dict) else "qm"
    family = ModelFamily(member(name, "model family", [f.value for f in ModelFamily]))
    return ModelParams(family, **_read(block, "model", family))


@dataclass(frozen=True)
class ScanSpec:
    inequality: str
    variable: str
    start: float
    stop: float
    steps: int


@dataclass(frozen=True)
class VerifySpec:
    """Knobs for the verification suite; sigma scales every stochastic
    tolerance (sigma = 0 makes all Monte-Carlo claims fail)."""

    sigma: float = 4.0
    mc_n: int = 1_000_000
    mc_trial_n: int = 100_000
    trials: int = 100
    cases: int = 10_000


@dataclass(frozen=True)
class RunConfig:
    task: str
    params: ModelParams = field(default_factory=ModelParams.qm)
    a: UnitVector3 | None = None
    b: UnitVector3 | None = None
    a_prime: UnitVector3 | None = None
    b_prime: UnitVector3 | None = None
    hidden: HiddenState | None = None
    phi: float | None = None
    n: int | None = None
    seed: int = 0
    shards: int = 1
    scan: ScanSpec | None = None
    out: str | None = None
    fmt: str | None = None
    verify: VerifySpec = field(default_factory=VerifySpec)


class Entry(NamedTuple):
    parse: Callable | None  # parse(value, what); None: the code reading the block reads it
    readers: tuple | None = None  # tasks (families for model keys); None: all
    field: str | None = None  # the field it fills, when not named after the key


SETTINGS_TASKS = ("prob", "correlator", "chsh")

# The config contract: every block, the keys it may hold, their parsers and
# who reads each.  `_read` rejects any other key and any key its reader does
# not read, and parses only the keys present, so each default lives in its
# dataclass.  verify reads no model: it builds its own.
CONFIG = {
    "config": {"task": Entry(None),
               "model": Entry(lambda block, _: parse_model(block),
                              tuple(task for task in TASKS if task != "verify"), "params"),
               "settings": Entry(None),
               "hidden": Entry(_block(HiddenState, "hidden"), ("prob",)),
               "phi": Entry(parse_angle, ("leggett", "branciard", "scan")),
               "sampling": Entry(None),
               "scan": Entry(None, ("scan",)),
               "verify": Entry(_block(VerifySpec, "verify"), ("verify",)),
               "output": Entry(None)},
    "settings": {"a": Entry(parse_unit_vector, SETTINGS_TASKS),
                 "b": Entry(parse_unit_vector, SETTINGS_TASKS),
                 "a_prime": Entry(parse_unit_vector, ("chsh",)),
                 "b_prime": Entry(parse_unit_vector, ("chsh",))},
    "sampling": {"n": Entry(partial(parse_integer, low=MIN_MC_SAMPLES), ("correlator",)),
                 "seed": Entry(partial(parse_integer, low=0),
                               ("prob", "correlator", "verify")),
                 "shards": Entry(partial(parse_integer, low=1), ("correlator",))},
    "scan": {"inequality": Entry(partial(member, names=INEQUALITIES)),
             "variable": Entry(partial(member, names=SCAN_VARIABLES)),
             "start": Entry(parse_angle),
             "stop": Entry(parse_angle),
             "steps": Entry(partial(parse_integer, low=2))},
    "verify": {"sigma": Entry(partial(parse_number, lo=0.0)),
               "mc_n": Entry(partial(parse_integer, low=1)),
               "mc_trial_n": Entry(partial(parse_integer, low=MIN_MC_SAMPLES)),
               "trials": Entry(partial(parse_integer, low=1)),
               "cases": Entry(partial(parse_integer, low=1))},
    "output": {"path": Entry(_path, None, "out"),
               "format": Entry(partial(member, names=OUTPUT_FORMATS), None, "fmt")},
    "model": {"family": Entry(None),
              "eta": Entry(parse_number, FIELD_READERS["eta"]),
              "zeta": Entry(parse_number, FIELD_READERS["zeta"]),
              "f": Entry(_block(FSpec, "f"), FIELD_READERS["f_spec"], "f_spec"),
              "f_b": Entry(_block(FSpec, "f"), FIELD_READERS["f_spec_b"], "f_spec_b"),
              "p": Entry(_p_field, FIELD_READERS["p_spec"], "p_spec")},
    "hidden": {**dict.fromkeys("uv", Entry(parse_unit_vector)), "p": Entry(_triple)},
    "f": {"coeff": Entry(parse_number), "power": Entry(parse_integer)},
    "constant p": {"kind": Entry(None), "p0": Entry(_triple)},
    "cap p": {"kind": Entry(None), "axis": Entry(parse_unit_vector),
              "half_angle": Entry(parse_angle), "pm": Entry(parse_number, None, "magnitude")},
}


def _check_read(what: str, key: str, reader) -> None:
    """Reject entry ``key`` of block ``what`` unless ``reader`` (a task or family) reads it."""
    entry = CONFIG[what][key]
    if entry.readers is None or reader in entry.readers:
        return
    if isinstance(reader, ModelFamily):
        _check_reads(reader, key, entry.field)
    raise ConfigError(f"{key!r} is read only by {'/'.join(entry.readers)}, not by {reader}")


def _read(block, what: str, reader=None) -> dict:
    """The entries of config block ``what`` that ``block`` holds, parsed and
    keyed by the field each fills."""
    if not isinstance(block, dict):
        raise ConfigError(f"{what} must be an object, got {block!r}")
    rows = CONFIG[what]
    if extra := block.keys() - rows.keys():
        raise ConfigError(f"unknown {what} keys: {sorted(extra)}")
    for key, value in block.items():
        if key in CONFIG and not isinstance(value, dict):  # a nested block
            raise ConfigError(f"{key} must be an object, got {value!r}")
        _check_read(what, key, reader)
    label = "" if what == "config" else f"{what} "
    return {rows[key].field or key: rows[key].parse(value, label + key)
            for key, value in block.items() if rows[key].parse is not None}


def parse_config(doc: dict, task: str | None = None, *, pm=None) -> RunConfig:
    """The run a config document describes, for ``task`` when a command
    names it.  ``pm`` is the ``--pm`` sup norm, which rescales the model's
    p-field whatever its kind.  `CONFIG` parses each entry, the `geometry`
    checkers and model constructors check it, and `_parse_config` ties
    entries together, calling the library's own check of each rule it has
    one for.  Any other ValueError (`InvalidModelError` included) becomes a
    ConfigError with its message here, and nowhere else."""
    try:
        return _parse_config(doc, task, pm)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_config(doc, task, pm) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    if task is not None and doc.get("task", task) != task:
        raise ConfigError(f"config task {doc['task']!r} does not match the {task} command")
    task = task or doc.get("task")
    if task is None:
        raise ConfigError("no task given")
    member(task, "task", TASKS)
    if doc.get("model") == {}:  # an empty model block sets nothing, so every task takes it
        doc = {key: value for key, value in doc.items() if key != "model"}

    fields = _read(doc, "config", task)
    for what in ("settings", "sampling", "output"):
        fields.update(_read(doc.get(what, {}), what, task))
    if "scan" in doc:
        entries = _read(doc["scan"], "scan")
        if missing := [key for key in CONFIG["scan"] if key not in entries]:
            raise ConfigError(f"scan block missing {missing[0]!r}")
        fields["scan"] = ScanSpec(**entries)
    config = RunConfig(task, **fields)
    family, scan = config.params.family, config.scan

    if "shards" in fields and "n" not in fields:
        raise ConfigError("shards needs n (shards split the Monte-Carlo samples)")
    if "seed" in fields:
        if task == "correlator" and "n" not in fields:
            raise ConfigError("seed needs n (it seeds the Monte-Carlo samples)")
        if task == "prob" and "hidden" in doc:
            raise ConfigError("seed draws the hidden state, but the hidden block fixes it")
        if task == "prob" and family is ModelFamily.QM:
            raise ConfigError("seed draws the hidden state, and the qm model has none")
    if task == "chsh" and 0 < len(CONFIG["settings"].keys() & fields.keys()) < 4:
        raise ConfigError("chsh needs all four settings or none")
    if config.fmt == "csv" and task != "scan":
        raise ConfigError(f"csv output is for scan only; {task} writes json")

    if task == "scan":
        if scan is None:
            raise ConfigError("scan task requires a scan block")
        variable, model = scan.variable, doc.get("model", {})
        _check_scan(scan.inequality, config.params, variable, config.phi, (scan.start, scan.stop))
        # a scan's rows come from closed forms, which the response function
        # averages out of
        if unread := [key for key in ("f", "f_b") if key in model]:
            readers = [t for t in CONFIG["config"]["model"].readers if t != "scan"]
            raise ConfigError(f"{unread[0]!r} is read only by {'/'.join(readers)}, "
                              "not by scan")
        fixed = {"p_m": pm is not None or "pm" in model.get("p", {})}
        if fixed.get(variable, variable in model):
            raise ConfigError(f"{variable} is the scan variable; a fixed {variable} "
                              "would be ignored")
    if task in INEQUALITIES:
        _check_margin(task, config.phi)

    if pm is not None:
        _check_read("config", "model", task)
        config = replace(config, params=config.params.with_pm(
            CONFIG["cap p"]["pm"].parse(pm, "pm")))
    if config.hidden is not None:
        _check_hidden(config.params, config.hidden)
        if family is ModelFamily.THV:  # the cubic family's partner is v = -u
            config = replace(config, hidden=replace(config.hidden, v=-config.hidden.u))
    return config


# ------------------------------ single runs --------------------------------


def _model_echo(params: ModelParams) -> dict:
    doc = {"family": params.family.value}
    if params.family is ModelFamily.FHV:
        doc["eta"] = params.eta
        doc["epsilon"] = params.epsilon
        doc["f"] = {"coeff": params.f_spec.coeff, "power": params.f_spec.power}
        if params.f_spec_b is not None:
            doc["f_b"] = {"coeff": params.f_b.coeff, "power": params.f_b.power}
    elif params.family is ModelFamily.SHV:
        doc["p_m"] = params.p_m
        doc["p_mean"] = [float(c) for c in params.p_mean()]
    elif params.family is ModelFamily.THV:
        doc["zeta"] = params.zeta
    return doc


def _vector_echo(v: UnitVector3) -> list[float]:
    return [v.x, v.y, v.z]


def _resolve_hidden(config: RunConfig) -> tuple[HiddenState | None, str]:
    """Hidden state for a table evaluation: the config's when it fixes one,
    otherwise sampled from the model's own distribution with the run seed."""
    if config.hidden is not None:
        return config.hidden, "config"
    if config.params.family is ModelFamily.QM:
        return None, "none"
    return sample_hidden(config.params, make_rng(config.seed)), "sampled"


def _hidden_echo(h: HiddenState | None) -> dict | None:
    if h is None:
        return None
    doc = {}
    if h.u is not None:
        doc["u"] = _vector_echo(h.u)
    if h.v is not None:
        doc["v"] = _vector_echo(h.v)
    if h.p is not None:
        doc["p"] = list(h.p)
    return doc


def run_single(config: RunConfig) -> dict:
    """One evaluation (prob / correlator / chsh / leggett / branciard) as a
    JSON-ready document with the inputs echoed."""
    params = config.params
    doc: dict = {"task": config.task, "model": _model_echo(params), "seed": config.seed}

    if config.task == "prob":
        a = config.a or UnitVector3(0.0, 0.0, 1.0)
        b = config.b or UnitVector3(0.0, 0.0, 1.0)
        hidden, origin = _resolve_hidden(config)
        table = joint(params, hidden, Settings(a, b))
        doc["settings"] = {"a": _vector_echo(a), "b": _vector_echo(b)}
        doc["hidden"] = _hidden_echo(hidden)
        doc["hidden_origin"] = origin
        doc["table"] = table.as_dict()
        return doc

    if config.task == "correlator":
        a = config.a or UnitVector3(0.0, 0.0, 1.0)
        b = config.b or UnitVector3(0.0, 0.0, 1.0)
        s = Settings(a, b)
        doc["settings"] = {"a": _vector_echo(a), "b": _vector_echo(b)}
        doc["analytic"] = analytic_correlator(params, s)
        if config.n is not None:
            est = mc_correlator(params, s, config.n, config.seed, config.shards)
            doc["mc"] = {
                "mean": est.mean,
                "stderr": est.stderr,
                "n": est.n,
                "seed": est.seed,
                "shards": config.shards,
            }
        return doc

    custom = (config.a, config.b, config.a_prime, config.b_prime)
    rep = margin(config.task, params, phi=config.phi,
                 settings=custom if all(v is not None for v in custom) else None)

    doc["inequality"] = rep.name
    doc["value"] = rep.value
    doc["bound"] = rep.bound
    doc["margin"] = rep.margin
    doc["violated"] = rep.violated
    doc["configuration"] = rep.configuration
    return doc


# --------------------------------- scans -----------------------------------


def run_scan(config: RunConfig) -> list[dict]:
    """Margin sweep over a grid of one variable; one row per node."""
    spec = config.scan
    xs = np.linspace(spec.start, spec.stop, spec.steps)
    values, bounds = scan_values(spec.inequality, config.params, spec.variable, xs,
                                 phi=config.phi)
    rows = []
    for x, value, bound in zip(xs.tolist(), values.tolist(), bounds.tolist()):
        m = value - bound
        rows.append(
            {
                "variable": spec.variable,
                "value_of_variable": x,
                "inequality": spec.inequality,
                "value": value,
                "bound": bound,
                "margin": m,
                "violated": m > 0.0,
            }
        )
    return rows


def scan_rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCAN_CSV_HEADER.split(","))
    for row in rows:
        writer.writerow(
            [
                row["variable"],
                repr(row["value_of_variable"]),
                row["inequality"],
                repr(row["value"]),
                repr(row["bound"]),
                repr(row["margin"]),
                "true" if row["violated"] else "false",
            ]
        )
    return buf.getvalue()


# ----------------------------- verification suite ---------------------------


@dataclass(frozen=True)
class Claim:
    """One checked statement: computed value against its reference."""

    id: str
    description: str
    reference: float
    computed: float
    tolerance: float
    status: str
    note: str = ""

    @property
    def abs_diff(self) -> float:
        return abs(self.computed - self.reference)

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "reference": self.reference,
            "computed": self.computed,
            "abs_diff": self.abs_diff,
            "tolerance": self.tolerance,
            "status": self.status,
            "note": self.note,
        }


def _claim(
    id: str, description: str, reference: float, computed: float, tolerance: float,
    flagged: bool = False, note: str = "",
) -> Claim:
    if flagged:
        status = "discrepancy-flagged"
    else:
        status = "pass" if abs(computed - reference) <= tolerance else "fail"
    return Claim(id, description, float(reference), float(computed),
                 float(tolerance), status, note)


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    claims: tuple[Claim, ...]
    seed: int
    versions: dict

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.claims if c.status == "fail")

    @property
    def n_flagged(self) -> int:
        return sum(1 for c in self.claims if c.status == "discrepancy-flagged")

    @property
    def n_passed(self) -> int:
        return sum(1 for c in self.claims if c.status == "pass")

    def claim(self, claim_id: str) -> Claim:
        for c in self.claims:
            if c.id == claim_id:
                return c
        raise KeyError(claim_id)

    def as_dict(self) -> dict:
        return {
            "suite": {
                "name": self.suite,
                "total": len(self.claims),
                "passed": self.n_passed,
                "failed": self.n_failed,
                "flagged": self.n_flagged,
            },
            "claims": [c.as_dict() for c in self.claims],
            "seed": self.seed,
            "versions": self.versions,
        }


def _random_params(family: ModelFamily, rng: np.random.Generator) -> ModelParams:
    if family is ModelFamily.FHV:
        return ModelParams.fhv(
            eta=float(rng.uniform(0.0, 1.0)),
            f_spec=FSpec(coeff=float(rng.uniform(0.0, 0.5)),
                         power=int(rng.choice([1, 3]))),
        )
    if family is ModelFamily.SHV:
        if rng.random() < 0.5:
            direction = sample_unit_batch(rng, 1)[0]
            p0 = float(rng.uniform(0.0, 1.0)) * direction
            return ModelParams.shv(ConstantP(tuple(float(c) for c in p0)))
        return ModelParams.shv(
            CapP(
                axis=sample_unit_uniform(rng),
                half_angle=float(rng.uniform(0.0, PI / 2)),
                magnitude=float(rng.uniform(0.0, 1.0)),
            )
        )
    if family is ModelFamily.THV:
        return ModelParams.thv(zeta=float(rng.uniform(0.0, 1.8)))
    return ModelParams.qm()


def _random_settings(rng: np.random.Generator) -> Settings:
    pair = sample_unit_batch(rng, 2)
    return Settings(UnitVector3.from_array(pair[0]), UnitVector3.from_array(pair[1]))


def _quadrature_thv_chsh(zeta: float) -> float:
    """CHSH value of the cubic family at the optimal settings, with the
    hidden-vector average done by sphere quadrature instead of the
    closed-form correlator (independent route)."""

    def corr(a, b):
        return -float(np.dot(a.arr, b.arr)) + zeta * sphere_moment_oracle(a, b)

    return chsh_value(corr, *chsh_optimal_settings())


def _mc_trial_failures(
    family: ModelFamily, trials: int, n: int, sigma: float,
    rng: np.random.Generator,
) -> int:
    """Trials where the Monte-Carlo mean misses the closed form by more than
    sigma standard errors.  Every trial's inputs are drawn from ``rng``
    first; the independent estimates then run on `_pool_map` threads."""
    draws = [(_random_params(family, rng), _random_settings(rng), int(rng.integers(0, 2**31)))
             for _ in range(trials)]
    estimates = _pool_map(lambda d: mc_correlator(d[0], d[1], n, d[2]), draws)
    failures = 0
    for (params, s, _), est in zip(draws, estimates):
        target = analytic_correlator(params, s)
        if est.stderr == 0.0:
            failures += 0 if est.mean == target else 1
        elif abs(est.mean - target) > sigma * est.stderr:
            failures += 1
    return failures


def _property_extremes(family: ModelFamily, cases: int, rng: np.random.Generator):
    """Vectorized normalization / positivity / no-signaling extremes over
    random settings and hidden draws."""
    params = _random_params(family, rng)
    a = sample_unit_batch(rng, cases)
    b = sample_unit_batch(rng, cases)
    b2 = sample_unit_batch(rng, cases)
    a2 = sample_unit_batch(rng, cases)
    hidden = sample_hidden_batch(params, cases, rng)
    pp, pm, mp, mm = table_cells(*coeffs(params, hidden, a, b))
    norm_dev = float(np.max(np.abs(pp + pm + mp + mm - 1.0)))
    min_entry = float(np.min([pp, pm, mp, mm]))
    # remote-setting swaps: marginal of A must ignore b, marginal of B ignore a
    pp_b2, pm_b2, _, _ = table_cells(*coeffs(params, hidden, a, b2))
    pp_a2, _, mp_a2, _ = table_cells(*coeffs(params, hidden, a2, b))
    signaling = float(np.max([
        np.abs((pp + pm) - (pp_b2 + pm_b2)),
        np.abs((pp + mp) - (pp_a2 + mp_a2)),
    ]))
    return norm_dev, min_entry, signaling


def _bhv_conditional_shift(cases: int, rng: np.random.Generator) -> float:
    """Max over random product tables of |P(sigma|tau=+1) - P(sigma|tau=-1)|."""
    abar = rng.uniform(-0.999, 0.999, cases)
    bbar = rng.uniform(-0.999, 0.999, cases)
    return float(np.max(_conditional_shift(*table_cells(abar, bbar, abar * bbar))))


def _threshold_claim(
    id: str, description: str, reference: float, tolerance: float,
    name: str, params: ModelParams, variable: str, domain: tuple[float, float],
    **search,
) -> Claim:
    """Claim on the threshold search's root (nan when no root is found)."""
    res = threshold(name, params, variable, domain, 1e-10, **search)
    return _claim(id, description, reference, res.root if res.found else math.nan, tolerance)


def run_verify(config: RunConfig) -> VerificationReport:
    """Evaluate the full closed-form claim list.

    Claims compare numeric results from the generic machinery (quadrature,
    scans, the bracketed root search of window ends and thresholds,
    golden-section maximization, Monte-Carlo) against independently known
    closed forms.
    Two claims record known-discrepant alternative formulas; they are flagged
    informationally and never fail the suite.
    """
    v = config.verify
    sigma = v.sigma
    streams = iter(np.random.SeedSequence(config.seed).spawn(64))

    def rng() -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(next(streams)))

    claims: list[Claim] = []
    qm = ModelParams.qm()
    optimal = chsh_optimal_settings()

    # --- CHSH ---------------------------------------------------------------
    e_qm = chsh_value(correlator_fn(qm), *optimal)
    claims.append(_claim(
        "chsh.qm.value",
        "CHSH value of the singlet correlator at the optimal settings",
        2.0 * math.sqrt(2.0), e_qm, 1e-12,
    ))

    claims.append(_threshold_claim(
        "chsh.fhv.eta_threshold",
        "Largest eta with a CHSH violation for the damped-correlation family",
        ETA_MAX_CHSH_FHV, 1e-9, "chsh", ModelParams.fhv(0.0), "eta", (0.0, 1.0),
    ))

    r = rng()
    fields = [_random_params(ModelFamily.SHV, r) for _ in range(20)]
    e_num = _value_function("chsh", fields)(np.zeros(20), np.arange(20))
    errors = [abs(e - 2.0 * math.sqrt(2.0) / math.sqrt(1.0 + m.p_m**2))
              for m, e in zip(fields, e_num.tolist())]
    claims.append(_claim(
        "chsh.shv.scale",
        "Cross-term cancellation: CHSH value is 2*sqrt(2)/sqrt(1+pm^2) "
        "for 20 random p-fields at the optimal settings",
        0.0, np.max(errors), 1e-10,
    ))

    claims.append(_threshold_claim(
        "chsh.shv.pm_threshold",
        "CHSH violation persists exactly while pm^2 < 1",
        PM_MAX_CHSH_SHV, 1e-9, "chsh", ModelParams.shv(), "p_m", (0.0, 2.0),
    ))

    # --- Leggett ------------------------------------------------------------
    phis = np.linspace(0.0, PI, 50)
    values, _ = scan_values("leggett", qm, "phi", phis)
    claims.append(_claim(
        "leggett.qm.plane_avg_grid",
        "Plane-averaged F(phi) equals 2(1+cos phi) on a 50-point grid",
        0.0, np.max(np.abs(values - 2.0 * (1.0 + np.cos(phis)))), 1e-9,
    ))

    arg, best = max_violation("leggett", qm, "phi", (0.0, PI))
    claims.append(_claim(
        "leggett.qm.max_margin",
        "Maximal Leggett margin of the singlet",
        LEGGETT_QM_MAX_MARGIN, best, 1e-8,
    ))
    claims.append(_claim(
        "leggett.qm.argmax_phi",
        "Maximizing angle 2*arcsin(1/(2*pi))",
        LEGGETT_QM_ARGMAX_PHI, arg, 1e-8,
    ))

    r = rng()
    etas = [float(r.uniform(0.0, 0.99 * ETA_MAX_LEGGETT_FHV)) for _ in range(50)]
    windows = _violation_windows("leggett", [ModelParams.fhv(eta) for eta in etas], "phi",
                                 (0.0, PI), tol=1e-10)
    errors = []
    for eta, win in zip(etas, windows):
        s_lo, s_hi = leggett_fhv_window_sin(eta)
        errors += [abs(win.lower - 2.0 * math.asin(s_lo)),
                   abs(win.upper - 2.0 * math.asin(s_hi))]
    claims.append(_claim(
        "leggett.fhv.window_endpoints",
        "Numeric violation window matches the quadratic closed form "
        "for 50 random eta",
        0.0, np.max(errors), 1e-8,
    ))

    claims.append(_threshold_claim(
        "leggett.fhv.eta_threshold",
        "Largest eta with a Leggett violation: 2*pi^2 - 1 - 2*pi*sqrt(pi^2-1)",
        ETA_MAX_LEGGETT_FHV, 1e-8, "leggett", ModelParams.fhv(0.0), "eta", (0.0, 0.1),
    ))

    r = rng()
    fields, phis_shv = zip(*[(_random_params(ModelFamily.SHV, r), float(r.uniform(0.0, PI)))
                             for _ in range(20)])
    values = _value_function("leggett", fields)(np.array(phis_shv), np.arange(20))
    errors = []
    for params, phi, value in zip(fields, phis_shv, values.tolist()):
        pbar = float(np.linalg.norm(params.p_mean()))
        expected = ((2.0 * (1.0 + math.cos(phi)) + pbar * math.sin(phi))
                    / math.sqrt(1.0 + params.p_m**2))
        errors.append(abs(value - expected))
    claims.append(_claim(
        "leggett.shv.formula",
        "Plane-averaged F(phi) equals [2(1+cos phi) + |pbar| sin phi] "
        "/ sqrt(1+pm^2) for 20 random (p-field, phi)",
        0.0, np.max(errors), 1e-9,
    ))

    claims.append(_threshold_claim(
        "leggett.thv.zeta_threshold",
        "Largest zeta with a Leggett violation at the singlet's maximizing "
        "angle: 70*pi^4/(40*pi^6 - 18*pi^4 + 6*pi^2 - 1)",
        ZETA_MAX_LEGGETT_THV, 1e-8, "leggett", ModelParams.thv(0.0), "zeta", (0.0, 1.0),
        phi=LEGGETT_QM_ARGMAX_PHI,
    ))

    # --- Branciard ----------------------------------------------------------
    values, _ = scan_values("branciard", qm, "phi", phis)
    claims.append(_claim(
        "branciard.qm.triad_value",
        "Triad evaluation of G(phi) equals 2|cos(phi/2)| on a 50-point grid",
        0.0, np.max(np.abs(values - 2.0 * np.abs(np.cos(phis / 2.0)))), 1e-10,
    ))

    win = violation_window("branciard", qm, "phi", (0.0, PI), tol=1e-10)
    claims.append(_claim(
        "branciard.qm.window_upper_sin",
        "Upper window endpoint at sin(phi/2) = 3/5",
        BRANCIARD_QM_WINDOW_HI_SIN, math.sin(win.upper / 2.0), 1e-8,
    ))

    arg, best = max_violation("branciard", qm, "phi", (0.0, PI))
    claims.append(_claim(
        "branciard.qm.max_margin",
        "Maximal Branciard margin of the singlet: (2/3)*sqrt(10) - 2",
        BRANCIARD_QM_MAX_MARGIN, best, 1e-8,
    ))
    claims.append(_claim(
        "branciard.qm.argmax_sin",
        "Maximizing angle has sin(phi/2) = 1/sqrt(10)",
        BRANCIARD_QM_ARGMAX_SIN, math.sin(arg / 2.0), 1e-8,
    ))

    claims.append(_threshold_claim(
        "branciard.fhv.eta_threshold",
        "Largest eta with a Branciard violation: 3/(2*sqrt(2)) - 1",
        ETA_MAX_BRANCIARD_FHV, 1e-8, "branciard", ModelParams.fhv(0.0), "eta", (0.0, 0.2),
    ))

    r = rng()
    etas = [float(r.uniform(0.0, 0.95 * ETA_MAX_BRANCIARD_FHV)) for _ in range(20)]
    args, _ = _max_violations("branciard", [ModelParams.fhv(eta) for eta in etas], "phi",
                              (0.0, PI))
    errors = [abs(math.sin(arg / 2.0) - branciard_fhv_argmax_sin(eta))
              for eta, arg in zip(etas, args.tolist())]
    claims.append(_claim(
        "branciard.fhv.maximizer",
        "Maximizing angle satisfies sin(phi/2) = (1+eta)/sqrt(9+(1+eta)^2) "
        "for 20 random eta",
        0.0, np.max(errors), 1e-8,
    ))

    etas = (0.0, 0.02, 0.04)
    windows = _violation_windows("branciard", [ModelParams.fhv(eta) for eta in etas], "phi",
                                 (0.0, PI), tol=1e-10)
    errors = []
    for eta, win in zip(etas, windows):
        s_lo, s_hi = branciard_fhv_window_sin_derived(eta)
        errors += [abs(math.sin(win.lower / 2.0) - s_lo),
                   abs(math.sin(win.upper / 2.0) - s_hi)]
    claims.append(_claim(
        "branciard.fhv.window_derived",
        "Numeric violation window matches the derived quadratic "
        "(center 3(1+eta)^2 / ((1+eta)^2 + 9))",
        0.0, np.max(errors), 1e-8,
    ))

    eta_probe = 0.02
    claims.append(_claim(
        "branciard.fhv.window_center_quoted",
        "Alternative printed window center (1+eta)^2/3 disagrees with the "
        "derived center; at eta=0 it implies endpoint 2/3 instead of 3/5",
        branciard_fhv_window_center_quoted(eta_probe),
        branciard_fhv_window_center_derived(eta_probe),
        0.0,
        flagged=True,
        note="derived center kept as the authority; quoted form recorded only",
    ))

    claims.append(_threshold_claim(
        "branciard.thv.zeta_threshold",
        "Largest zeta with a Branciard violation at sin(phi/2) = 1/sqrt(10): "
        "175*(10 - 3*sqrt(10))/216",
        ZETA_MAX_BRANCIARD_THV, 1e-8, "branciard", ModelParams.thv(0.0), "zeta", (0.0, 1.0),
        phi=2.0 * math.asin(BRANCIARD_QM_ARGMAX_SIN),
    ))

    # --- cubic-family CHSH coefficient (independent quadrature route) -------
    quadrature = {zeta: _quadrature_thv_chsh(zeta) for zeta in (0.0, 0.5, 1.0, 2.0)}
    errors = [abs(quadrature[zeta] - (2.0 * math.sqrt(2.0) - CHSH_THV_SLOPE_DERIVED * zeta))
              for zeta in (0.5, 1.0, 2.0)]
    claims.append(_claim(
        "chsh.thv.derived_value",
        "Sphere-quadrature CHSH value of the cubic family equals "
        "2*sqrt(2) - (8*sqrt(2)/35)*zeta at the optimal settings",
        0.0, np.max(errors), 1e-8,
    ))

    e0, e1 = quadrature[0.0], quadrature[1.0]
    root = (e0 - 2.0) / (e0 - e1)
    claims.append(_claim(
        "chsh.thv.derived_zeta_root",
        "Zero crossing of the derived CHSH decay: 35*(2 - sqrt(2))/8 "
        "(outside the positivity-admissible zeta range, so the cubic family "
        "violates CHSH for every admissible zeta)",
        ZETA_ROOT_CHSH_THV_DERIVED, root, 1e-8,
    ))

    claims.append(_claim(
        "chsh.thv.quoted_slope",
        "Alternative quoted CHSH decay slope zeta/(3*sqrt(2)) disagrees with "
        "the derived slope (8*sqrt(2)/35)*zeta",
        CHSH_THV_SLOPE_QUOTED, CHSH_THV_SLOPE_DERIVED, 0.0,
        flagged=True,
        note=(
            "quoted root 12 - 6*sqrt(2) = "
            f"{ZETA_ROOT_CHSH_THV_QUOTED!r} (sometimes printed as 3.5417); "
            f"derived root {ZETA_ROOT_CHSH_THV_DERIVED!r}"
        ),
    ))

    # --- sixth-moment oracle --------------------------------------------------
    xs = np.linspace(-1.0, 1.0, 101).tolist()
    b = [UnitVector3.normalized(math.sqrt(max(0.0, 1.0 - x * x)), 0.0, x).arr for x in xs]
    expected = [(3.0 / 35.0) * x + (2.0 / 35.0) * x**3 for x in xs]
    errors = np.abs(_sphere_moments(Z, np.array(b), 16) - expected)
    claims.append(_claim(
        "moments.sixth_grid",
        "Sphere average of (a.u)^3 (b.u)^3 equals (3/35) x + (2/35) x^3 "
        "on a 101-point grid of x = a.b",
        0.0, np.max(errors), 1e-8,
    ))

    # --- property suites -------------------------------------------------------
    families = (ModelFamily.FHV, ModelFamily.SHV, ModelFamily.THV, ModelFamily.QM)
    r = rng()
    norm_dev, entries, signaling = np.array(
        [_property_extremes(family, v.cases, r) for family in families]).T
    min_entry = np.min(entries)
    claims.append(_claim(
        "props.normalization",
        f"Every joint table sums to 1 over {v.cases} random cases per family",
        0.0, np.max(norm_dev), 1e-12,
    ))
    claims.append(_claim(
        "props.positivity",
        "No joint probability is negative in any sampled case",
        0.0, 0.0 if min_entry >= 0.0 else -min_entry, 0.0,
    ))
    claims.append(_claim(
        "props.no_signaling",
        "Each party's marginal ignores the remote setting in every case",
        0.0, np.max(signaling), 1e-12,
    ))

    plus, _ = _shard_counts(ModelParams.fhv(1.0), _random_settings(rng()), v.mc_n, rng())
    claims.append(_claim(
        "props.fhv_marginal_zero_mean",
        "Zero-mean response keeps the first family's outcome frequency at "
        f"1/2 (n = {v.mc_n})",
        0.5, plus / v.mc_n, sigma * math.sqrt(0.25 / v.mc_n),
    ))

    r = rng()
    witness_hinge = 0.0
    for params in (ModelParams.fhv(1.0), ModelParams.shv(), ModelParams.thv(1.0)):
        found = outcome_dependence_witness(params, r, trials=v.cases).delta
        witness_hinge = max(witness_hinge, max(0.0, 0.1 - found))
    claims.append(_claim(
        "props.outcome_dependence",
        "A conditional shifted by more than 0.1 exists for each hidden "
        "family (remote outcome matters at fixed hidden state)",
        0.0, witness_hinge, 0.0,
    ))

    claims.append(_claim(
        "props.bhv_outcome_independence",
        "Product-model conditionals ignore the remote outcome exactly",
        0.0, _bhv_conditional_shift(v.cases, rng()), 1e-12,
    ))

    hidden = sample_hidden_batch(ModelParams.thv(1.0), v.cases, rng())
    claims.append(_claim(
        "props.thv_support",
        "Cubic-family hidden pairs satisfy u + v = 0 exactly",
        0.0, float(np.max(np.abs(hidden["u"] + hidden["v"]))), 0.0,
    ))

    # --- bound audits ----------------------------------------------------------
    claims.append(_claim(
        "bounds.bhv_chsh_search",
        "Randomized product-model search never exceeds the CHSH bound 2",
        0.0, max(0.0, bhv_chsh_search(rng(), trials=v.cases) - 2.0), 1e-9,
    ))
    claims.append(_claim(
        "bounds.lhv_leggett_search",
        "Randomized Malus-marginal search never exceeds the Leggett bound",
        0.0, max(0.0, lhv_leggett_search(rng(), trials=200)), 1e-9,
    ))
    claims.append(_claim(
        "bounds.lhv_branciard_search",
        "Randomized Malus-marginal search never exceeds the Branciard bound",
        0.0, max(0.0, lhv_branciard_search(rng(), trials=2000)), 1e-9,
    ))

    # --- Monte-Carlo consistency -----------------------------------------------
    for family in families:
        failures = _mc_trial_failures(family, v.trials, v.mc_trial_n, sigma, rng())
        claims.append(_claim(
            f"mc.{family.value}.consistency",
            f"Monte-Carlo correlator within {sigma} standard errors of the "
            f"closed form in at least {v.trials - 1}/{v.trials} trials "
            f"(n = {v.mc_trial_n})",
            0.0, float(max(0, failures - 1)), 0.0,
        ))

    versions = {
        "hvsinglet": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    return VerificationReport(
        suite="hvsinglet-verify",
        claims=tuple(claims),
        seed=config.seed,
        versions=versions,
    )


# -------------------------------- emission ----------------------------------


def report_to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
