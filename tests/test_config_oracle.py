"""Read-oracle built from the config table: for each task, every entry that
`harness.CONFIG` says the task reads is perturbed, one at a time, through
``hv``.  The run must then write different bytes or exit 2.  An entry a
task accepts and never reads would leave the output unchanged and fail here,
so the table cannot claim a reader that ignores the entry.

Runs stay tiny (a few hundred Monte-Carlo samples, three scan steps, a
verify with small knobs), so the whole oracle takes a few seconds.
"""

import copy
import json

import pytest

from hvsinglet.cli import main
from hvsinglet.harness import CONFIG, TASKS
from hvsinglet.models import ModelFamily

VERIFY_KNOBS = {"trials": 2, "mc_trial_n": 100, "cases": 20, "mc_n": 100}
# irregular directions, so no perturbation lands on a symmetric twin
A, B, A2, B2 = [1, 0.2, 0], [0.3, 0.9, 0.1], [0.1, -0.2, 1], [0.7, 0.1, 0.6]
CAP = {"kind": "cap", "axis": [0, 0.6, 0.8], "half_angle": 0.5, "pm": 0.4}
MODELS = {
    "fhv": {"family": "fhv", "eta": 0.2, "f": {"coeff": 0.3, "power": 1},
            "f_b": {"coeff": 0.2, "power": 3}},
    "thv": {"family": "thv", "zeta": 0.5},
    "shv-cap": {"family": "shv", "p": CAP},
    "shv-constant": {"family": "shv", "p": {"kind": "constant", "p0": [0.1, 0.2, 0.3]}},
    "qm": {"family": "qm"},
}
HIDDEN = {"fhv": {"u": [0, 0.6, 0.8], "v": [0.8, 0, 0.6]}, "thv": {"u": [0, 0.6, 0.8]},
          "shv-cap": {"p": [0, 0.1, 0.2]}, "shv-constant": {"p": [0.1, 0.2, 0.3]}}


def _scan(inequality, variable, start, stop):
    return {"inequality": inequality, "variable": variable, "start": start, "stop": stop,
            "steps": 3}


# One valid document per (task, model); each exits 0 as it stands.
BASES = {
    **{f"prob-{m}-sampled": ("prob", {"model": MODELS[m], "settings": {"a": A, "b": B},
                                      "sampling": {"seed": 1}})
       for m in HIDDEN},
    **{f"prob-{m}-hidden": ("prob", {"model": MODELS[m], "settings": {"a": A, "b": B},
                                     "hidden": HIDDEN[m]})
       for m in HIDDEN},
    "prob-qm": ("prob", {"model": MODELS["qm"], "settings": {"a": A, "b": B}}),
    **{f"correlator-{m}": ("correlator", {"model": MODELS[m], "settings": {"a": A, "b": B},
                                          "sampling": {"n": 200, "seed": 1, "shards": 2}})
       for m in MODELS},
    **{f"chsh-{m}": ("chsh", {"model": MODELS[m], "settings": {"a": A, "b": B, "a_prime": A2,
                                                                "b_prime": B2}})
       for m in MODELS},
    **{f"leggett-{m}": ("leggett", {"model": MODELS[m], "phi": 0.4}) for m in MODELS},
    **{f"branciard-{m}": ("branciard", {"model": MODELS[m], "phi": 0.4}) for m in MODELS},
    "scan-fhv-eta": ("scan", {"model": {"family": "fhv"},
                              "scan": _scan("leggett", "eta", 0.0, 0.02), "phi": 0.4}),
    "scan-thv-zeta": ("scan", {"model": {"family": "thv"},
                               "scan": _scan("branciard", "zeta", 0.0, 0.5), "phi": 0.4}),
    "scan-shv-p_m": ("scan", {"model": {"family": "shv", "p": {**CAP, "pm": None}},
                              "scan": _scan("leggett", "p_m", 0.1, 0.5), "phi": 0.4}),
    "scan-qm-phi": ("scan", {"model": MODELS["qm"],
                             "scan": _scan("branciard", "phi", 0.2, 1.0)}),
    "verify": ("verify", {"verify": VERIFY_KNOBS, "sampling": {"seed": 1}}),
}

# Candidate values for each entry; the first one that differs from the base
# is used.  A new table entry needs candidates here before the oracle passes.
PERTURB = {
    ("task",): ["prob", "chsh"],
    ("phi",): [1.1, 1.3],
    ("settings", "a"): [[0.2, 1, 0.3]],
    ("settings", "b"): [[-0.1, 0.7, 0.5]],
    ("settings", "a_prime"): [[0.6, 0.1, 0.7]],
    ("settings", "b_prime"): [[0.2, 0.8, 0.4]],
    ("sampling", "n"): [300],
    ("sampling", "seed"): [2],
    ("sampling", "shards"): [3],
    ("scan", "inequality"): ["chsh", "leggett"],
    ("scan", "variable"): ["phi", "eta"],
    ("scan", "start"): [0.05],
    ("scan", "stop"): [0.9],
    ("scan", "steps"): [4],
    ("verify", "sigma"): [3.0],
    ("verify", "mc_n"): [200],
    ("verify", "mc_trial_n"): [150],
    ("verify", "trials"): [3],
    ("verify", "cases"): [30],
    ("output", "format"): ["csv", "json"],
    ("model", "family"): ["shv", "fhv"],  # fhv and thv at their defaults are qm
    ("model", "eta"): [0.3],
    ("model", "zeta"): [0.3],
    ("model", "f", "coeff"): [0.1],
    ("model", "f", "power"): [3, 1],
    ("model", "f_b", "coeff"): [0.1],
    ("model", "f_b", "power"): [1, 3],
    ("model", "p", "kind"): ["cap", "constant"],
    ("model", "p", "p0"): [[0.3, 0.1, 0.0]],
    ("model", "p", "axis"): [[0.7, 0.1, 0.5]],
    ("model", "p", "half_angle"): [1.2],
    ("model", "p", "pm"): [0.7],
    ("hidden", "u"): [[0.7, 0.5, 0.1]],
    ("hidden", "v"): [[0.1, 0.7, 0.6]],
    ("hidden", "p"): [[0.2, 0, 0.1]],
}

# Entries a task reads without changing what it writes, by the tasks that
# do so.  output.path moves the output, it does not change it.
ALLOWED = {("output", "path"): TASKS}

# A block a perturbation adds starts from these entries, so that the run
# cannot exit 2 only because the block is incomplete.
COMPLETE = {"scan": _scan("branciard", "zeta", 0.0, 0.5)}

# The block a model entry's value is, when the entry is a nested block.
NESTED = {"f": "f", "f_b": "f"}


def _reads(entry, reader) -> bool:
    return entry.readers is None or reader in entry.readers


def _read_entries(task: str, doc: dict):
    """Every entry path the table says ``task`` reads for this document's model."""
    model = doc.get("model", {})
    family = ModelFamily(model.get("family", "qm"))
    for key, entry in CONFIG["config"].items():
        if not _reads(entry, task):
            continue
        if key not in CONFIG:
            yield (key,)
            continue
        reader = family if key in ("model", "hidden") else task
        for sub, row in CONFIG[key].items():
            if not _reads(row, reader):
                continue
            nested = NESTED.get(sub) if key == "model" else None
            if key == "model" and sub == "p":
                nested = f"{model.get('p', {}).get('kind', 'constant')} p"
            if nested is None:
                yield (key, sub)
            else:
                yield from ((key, sub, leaf) for leaf in CONFIG[nested])


def _get(doc, path):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def _perturbed(doc, path):
    candidates = PERTURB[path]
    value = next((c for c in candidates if c != _get(doc, path)), None)
    assert value is not None, f"no candidate for {path} differs from the base"
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target.setdefault(key, copy.deepcopy(COMPLETE.get(key, {})))
    target[path[-1]] = value
    return doc


def _drop_nones(doc):
    if isinstance(doc, dict):
        return {k: _drop_nones(v) for k, v in doc.items() if v is not None}
    return doc


def _run(task, doc, tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    if out.exists():
        out.unlink()
    code = main([task, "--config", str(cfg), "--out", str(out)])
    return code, out.read_bytes() if code == 0 else None


@pytest.mark.parametrize("label", BASES)
def test_every_entry_a_task_reads_changes_its_output(label, tmp_path, capsys):
    task, base = BASES[label]
    # the entries that name the command and the output format are spelt
    # out, so that a perturbation never restates the default it replaces
    fmt = "csv" if task == "scan" else "json"
    base = _drop_nones({"task": task, "output": {"format": fmt}, **base})
    code, expected = _run(task, base, tmp_path)
    assert code == 0, capsys.readouterr().err
    unread = []
    for path in _read_entries(task, base):
        if task in ALLOWED.get(path, ()):
            continue
        assert path in PERTURB, f"no perturbation for {path}: add one to PERTURB"
        code, output = _run(task, _perturbed(base, path), tmp_path)
        if code != 2 and output == expected:
            unread.append((path, code))
    capsys.readouterr()
    assert unread == [], unread
