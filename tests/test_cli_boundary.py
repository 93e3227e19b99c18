"""Boundary property test: any JSON config document handed to ``hv`` exits
with a documented code (0 success, 1 claim failure, 2 invalid configuration,
3 I/O or memory failure) and never escapes as a traceback.

Documents mix the schema's own keys and plausible values with junk of every
JSON type.  Sizes stay small (n <= 10^4 samples, few shards and scan steps),
and ``verify`` is never run, so each example costs milliseconds.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hvsinglet.cli import main

TASKS = ("prob", "correlator", "chsh", "leggett", "branciard", "scan")

# JSON values that are not numbers: every one of them must be rejected
# wherever a number, vector or object is expected.
word = st.text(alphabet="abdegrx ", max_size=5)
non_numeric = st.one_of(st.none(), st.booleans(), word,
                        st.lists(st.one_of(st.none(), word), max_size=3))


def mostly(good, bad):
    """``good`` nine times in ten, so many documents get past the first
    checks and reach the deeper ones."""
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda ok: good if ok else bad)


value = mostly(
    st.floats(-4.0, 4.0),
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(-400.0, 400.0).map(lambda x: f"{x!r}deg"),
        st.floats(-4.0, 4.0).map(lambda x: f"{x!r}rad"),
        non_numeric,
    ),
)
vector = mostly(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
                st.one_of(st.lists(value, max_size=4), value))


def size(low: int, high: int):
    """A valid count in [low, high], or one below it, or a value that is not
    a count; never above ``high``."""
    return mostly(st.integers(low, high),
                  st.one_of(st.integers(-5, low - 1), st.floats(-5.0, float(high)),
                            non_numeric))


def choice(*names):
    return mostly(st.sampled_from(names), value)


def block(required: dict, optional: dict):
    """An object with schema keys, or one with an unknown key, or junk."""
    good = st.fixed_dictionaries(required, optional=optional)
    unknown = st.builds(lambda d, k: {**d, k: 0}, good, st.sampled_from(["bogus", "n", "p"]))
    return mostly(good, st.one_of(unknown, non_numeric))


f_spec = block({}, {"coeff": value, "power": choice(1, 3)})
p_spec = block({}, {"kind": choice("constant", "cap"), "p0": vector, "axis": vector,
                    "half_angle": value, "pm": value})
model = block({"family": choice("qm", "fhv", "shv", "thv", "bhv", "FHV")},
              {"eta": value, "zeta": value, "f": f_spec, "f_b": f_spec, "p": p_spec})
documents = st.fixed_dictionaries({}, optional={
    "task": choice(*TASKS),
    "model": model,
    "settings": block({}, {"a": vector, "b": vector, "a_prime": vector, "b_prime": vector}),
    "hidden": block({}, {"u": vector, "v": vector, "p": vector}),
    "phi": value,
    "sampling": block({}, {"n": size(100, 10_000), "seed": size(0, 2**32),
                           "shards": size(1, 4)}),
    "scan": block({"inequality": choice("chsh", "leggett", "branciard"),
                   "variable": choice("phi", "eta", "zeta", "p_m"),
                   "start": value, "stop": value, "steps": size(2, 12)}, {}),
    "verify": block({}, {"sigma": value, "mc_n": size(1, 10), "trials": size(1, 10)}),
    "output": block({}, {"format": choice("json", "csv")}),
})


@given(task=st.sampled_from(TASKS), doc=documents)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_config_document_exits_with_a_documented_code(task, doc, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main([task, "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: invalid configuration:") and err.count("\n") == 1


# p-fields whose sup norm squared overflows: every route to one exits 2 with
# one line naming the sup norm, instead of a traceback, an infinite p_m in the
# report, or a zero correlator
CAP = {"kind": "cap", "axis": [0, 0, 1], "half_angle": 0.5}
HUGE_P_FIELDS = {
    "cap-pm-mc": (["correlator"], {"model": {"family": "shv", "p": {**CAP, "pm": 1e160}},
                                   "sampling": {"n": 1000}}),
    "cap-pm-prob": (["prob"], {"model": {"family": "shv", "p": {**CAP, "pm": 1e200}}}),
    "constant-p0": (["correlator"], {"model": {"family": "shv", "p": {"p0": [0, 0, 1e200]}}}),
    "pm-flag": (["correlator", "--model", "shv", "--pm", "1e200"], None),
    "pm-scan": (["scan"], {"model": {"family": "shv"},
                           "scan": {"inequality": "chsh", "variable": "p_m", "start": 0.0,
                                    "stop": 1e200, "steps": 3}}),
}


def _run(argv, doc, tmp_path):
    if doc is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    return main([*argv, "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("argv, doc", HUGE_P_FIELDS.values(), ids=HUGE_P_FIELDS.keys())
def test_p_field_whose_square_overflows_exits_2(argv, doc, tmp_path, capsys):
    assert _run(argv, doc, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: p-field sup norm")
    assert err.count("\n") == 1


def test_large_p_field_below_the_bound_still_runs(tmp_path, capsys):
    doc = {"model": {"family": "shv", "p": {"p0": [0, 0, 1e150]}},
           "settings": {"a": [1, 0, 0], "b": [0.6, 0.8, 0]}}
    assert _run(["correlator"], doc, tmp_path) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out").read_text())
    # C = -[a.b + p.(a x b)] / sqrt(1 + p_m^2) = -(0.6 + 0.8e150) / 1e150
    assert report["model"]["p_m"] == 1e150
    assert report["analytic"] == pytest.approx(-0.8, abs=1e-12)


def test_scan_too_large_to_allocate_exits_3(tmp_path, capsys):
    # 10^17 float64 steps is 711 PiB, above any user address space, so the
    # allocation fails at once and no memory is ever touched
    doc = {"model": {"family": "fhv"},
           "scan": {"inequality": "leggett", "variable": "eta", "start": 0.0, "stop": 0.1,
                    "steps": 10**17}}
    assert _run(["scan"], doc, tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: memory failure:") and err.count("\n") == 1


def test_thv_prob_accepts_zeta_two_and_rejects_just_above(tmp_path, capsys):
    # at a = b = u the cubic term reaches its bound: P(+-) = (2 - zeta)/4
    doc = {"model": {"family": "thv", "zeta": 2.0}, "hidden": {"u": [0, 0, 1]},
           "settings": {"a": [0, 0, 1], "b": [0, 0, 1]}}
    assert _run(["prob"], doc, tmp_path) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "out").read_text())["table"]["+-"] == 0.0
    assert _run(["prob", "--zeta", "2.000001"], doc, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: zeta = 2.000001") and err.count("\n") == 1
