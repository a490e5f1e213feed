"""Mutation fuzzing of the grid command's three inputs.

A small synthetic corpus, census layer and land layer are mutated one file
at a time, with a seeded stdlib ``random`` per case: truncation, a value of
another type, NaN or Infinity, a dropped key, a huge integer, an odd line
separator or deep nesting.  Whatever the mutant, ``grid`` must end with a
documented exit code (0, 2 or 3) and never with a traceback, and a grid it
writes must hold finite tweet, user and population masses.
"""

import csv
import json
import math
import random

import pytest

from geoscale.cli import main

SYNTH = ["synth", "--study=-3.0,50.0,-2.0,51.0", "--x-gen", "3",
         "--b-true", "0.005", "--c-true", "0.2", "--pop-log10-mean", "1.0",
         "--pop-log10-sigma", "0.5", "--seed", "5", "--emit-boxes-fraction", "0.3",
         "--bots", "1"]
FILES = ("tweets.jsonl", "population.geojson", "land.geojson")
MUTANTS_PER_CASE = 10

_HOLE = "@@mutant@@"    # stands for the mutated value while the rest is dumped
# 95.0, -181.0 and 1e6 are numbers out of the lat or lon range
_OTHER_TYPES = ("x", "", "-3.5", 0, -1, 1.5, 95.0, -181.0, 1e6, True, False, None,
                [], {}, [1, 2], {"type": "Polygon"})
_SEPARATORS = ("\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029", "\n\n")


def _paths(node, path=()):
    """Every path into a decoded JSON value, the root's () included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from _paths(child, path + (k,))


def _with_hole(doc, path):
    """doc dumped with the value at path replaced by the hole."""
    if not path:
        return json.dumps(_HOLE)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    parent[path[-1]] = _HOLE
    try:
        return json.dumps(doc)
    finally:
        parent[path[-1]] = value


def _value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate_doc(rng, kind, text):
    """Mutate one value of a JSON document's text; None when the document
    has nothing the mutation applies to."""
    doc = json.loads(text)
    paths = list(_paths(doc))
    if kind == "drop_key":
        paths = [p for p in paths if isinstance(_value_at(doc, p), dict)
                 and _value_at(doc, p)]
        if not paths:
            return None
        path = rng.choice(paths)
        parent = _value_at(doc, path)
        key = rng.choice(list(parent))
        value = parent.pop(key)
        try:
            return json.dumps(doc)
        finally:
            parent[key] = value
    if kind in ("non_finite", "huge_int"):
        numbers = [p for p in paths if type(_value_at(doc, p)) in (int, float)]
        paths = numbers or paths
    path = rng.choice(paths)
    if kind == "retype":
        value = json.dumps(rng.choice(_OTHER_TYPES))
    elif kind == "non_finite":
        value = rng.choice(("NaN", "Infinity", "-Infinity"))
    elif kind == "huge_int":
        value = rng.choice(("", "-")) + "1" + "0" * rng.choice((20, 308, 309, 400, 5000))
    else:   # deep_nesting
        depth = rng.choice((200, 1000, 50000))
        value = "[" * depth + json.dumps(_value_at(doc, path)) + "]" * depth
    return _with_hole(doc, path).replace(json.dumps(_HOLE), value, 1)


def mutate(rng, kind, name, text):
    """The text of file ``name`` after one mutation of ``kind``."""
    if kind == "truncate":
        return text[:rng.randrange(len(text))]
    if kind == "line_separator":
        sep = rng.choice(_SEPARATORS)
        if rng.random() < 0.5:
            return text.replace("\n", sep)
        at = rng.randrange(len(text))
        return text[:at] + sep + text[at:]
    if name != "tweets.jsonl":
        return _mutate_doc(rng, kind, text)
    lines = text.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    line = _mutate_doc(rng, kind, lines[k])
    return "".join(lines[:k]) + line + "\n" + "".join(lines[k + 1:])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz_inputs")
    assert main(SYNTH + ["--out", str(out)]) == 0
    return {name: (out / name).read_text() for name in FILES}


@pytest.mark.parametrize("name", FILES)
@pytest.mark.parametrize("kind", ["truncate", "retype", "non_finite", "drop_key",
                                  "huge_int", "line_separator", "deep_nesting"])
def test_grid_survives_every_mutant(tmp_path, capsys, inputs, kind, name):
    rng = random.Random(f"{kind}/{name}")
    failures = []
    for k in range(MUTANTS_PER_CASE):
        text = mutate(rng, kind, name, inputs[name])
        assert text is not None, f"{kind} has nothing to mutate in {name}"
        case = tmp_path / f"m{k}"
        case.mkdir()
        for other in FILES:
            (case / other).write_text(text if other == name else inputs[other])
        try:
            rc = main(["grid", "--tweets", str(case / "tweets.jsonl"),
                       "--population", str(case / "population.geojson"),
                       "--land", str(case / "land.geojson"),
                       "--study=-3.0,50.0,-2.0,51.0", "--x", "3", "--tag-kind", "both",
                       "--min-user-tweets", "1", "--out", str(case / "out")])
        except Exception as exc:
            failures.append(f"mutant {k}: {type(exc).__name__}: {exc}"[:300])
            continue
        finally:
            capsys.readouterr()
        if rc not in (0, 2, 3):
            failures.append(f"mutant {k}: exit {rc}")
        elif rc == 0:
            with open(case / "out" / "grid.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            bad = [(r["i"], r["j"], col) for r in rows for col in ("N_t", "N_u", "N_p")
                   if not (r[col] and math.isfinite(float(r[col])))]
            if bad:
                failures.append(f"mutant {k}: non-finite masses at {bad[:3]}")
    assert not failures, "\n".join(failures)
