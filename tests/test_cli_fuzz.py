"""Mutated complex, OFF, coloring and certificate documents.

Each CLI example writes one input complex (JSON or OFF), optionally a
coloring, runs one command on them through `cli.main`, and checks the
CLI's contract: the exit code is 0, 2, 3 or 4, no exception escapes, a
non-zero exit adds no file, and every exit-2 or exit-3 message is one
bounded line that starts with ``error: `` and a file named on the command
line, or the option it refuses.  Certificate examples go through
`load_certificate` and `color`, which may raise only `InputError`.
"""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from simplexcolor.cli import main
from simplexcolor.coloring import (COMBINATORIAL, GEOMETRIC, certificate_to_dict, color,
                                   load_certificate, peel, verify_coloring)
from simplexcolor.errors import InputError, UnrealizableComplexError
from simplexcolor.generators import GeneratorSpec, generate
from simplexcolor.model import complex_to_dict, save

SEEDS = [generate(GeneratorSpec(*spec)) for spec in (
    ("fan", 2, 3), ("closed-fan", 2, 5), ("freudenthal", 2, 1), ("tri-tiling", 2, 1),
    ("freudenthal", 3, 1), ("path", 1, 3), ("boundary-abstract", 2, 1),
)]
# A coloring document per seed: valid where the peel succeeds; the
# boundary of a tetrahedron has no peel, and gets one color per simplex.
COLORS = [list(color(c, peel(c)).colors) if k != len(SEEDS) - 1 else list(range(4))
          for k, c in enumerate(SEEDS)]


def _certificates():
    """(seed index, certificate document) for both peels of every seed
    that has one."""
    for k, c in enumerate(SEEDS):
        for method in (COMBINATORIAL, GEOMETRIC):
            try:
                yield k, certificate_to_dict(peel(c, method))
            except UnrealizableComplexError:
                pass


CERTIFICATES = list(_certificates())

HOSTILE = st.one_of(
    st.integers(-2, 9),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from(["3/7", "-0.5", "1/0", "1e99999999", "1e-4300", "x", "", "0" * 90]),
    st.lists(st.integers(-1, 9), max_size=4),
    st.just({}),
)
OFF_TOKENS = st.sampled_from(["-1", "0", "1", "2", "3", "4", "99", "0.5", "1/3", "1/0",
                              "1e99999999", "x", "nan", "#"])

# The commands, each as (argument template, reads a coloring).
COMMANDS = [
    (["color", "{input}", "-o", "{dir}/out.json"], False),
    (["color", "{input}", "--method", "geometric", "-o", "{dir}/out.json",
      "--certificate", "{dir}/out.cert.json"], False),
    (["verify", "{input}", "{coloring}"], True),
    (["analyze", "{input}"], False),
    (["analyze", "{input}", "--json"], False),
    (["chromatic", "{input}"], False),
    (["render", "{input}", "--show-dual", "-o", "{dir}/out.svg"], False),
    (["render", "{input}", "--coloring", "{coloring}", "-o", "{dir}/out.svg"], True),
    (["render", "{input}", "--width", "0", "-o", "{dir}/out.svg"], False),
    (["render", "{input}", "--height", "-1", "-o", "{dir}/out.svg"], False),
]


def mutate_tree(data, doc):
    """`doc` with one to three nodes replaced, deleted or duplicated."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while isinstance(node, (list, dict)) and node and data.draw(st.integers(0, 3)):
            parent, key = node, data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                                          else range(len(node))))
            node = parent[key]
        action = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if parent is None:
            doc = data.draw(HOSTILE)
        elif action == "replace":
            parent[key] = data.draw(HOSTILE)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(node))
    return doc


def mutate_bytes(data, text):
    """The UTF-8 bytes of `text`, sometimes cut short, spliced with bytes
    that may not be UTF-8, or with an integer literal longer than the
    interpreter's 4,300-digit limit, which `json.dumps` cannot write."""
    raw = text.encode()
    action = data.draw(st.sampled_from(["keep"] * 6 + ["truncate", "splice", "long-int"]))
    if action == "keep" or not raw:
        return raw
    if action == "long-int":  # before a digit, so that the literal grows
        at = data.draw(st.sampled_from([i for i, b in enumerate(raw) if b in b"0123456789"]
                                       or [0]))
        return raw[:at] + b"1" * 4301 + raw[at:]
    at = data.draw(st.integers(0, len(raw)))
    if action == "truncate":
        return raw[:at]
    return raw[:at] + data.draw(st.binary(min_size=1, max_size=4)) + raw[at:]


def mutate_off(data, text):
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, len(lines) - 1))
        action = data.draw(st.sampled_from(["token", "token", "delete", "duplicate"]))
        if action == "delete" and len(lines) > 1:
            del lines[k]
        elif action == "duplicate":
            lines.insert(k, lines[k])
        else:
            tokens = lines[k].split() or [""]
            j = data.draw(st.integers(0, len(tokens)))
            tokens[j:j + data.draw(st.integers(0, 1))] = [data.draw(OFF_TOKENS)]
            lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mutated_inputs_end_in_a_named_exit(data):
    seed = data.draw(st.integers(0, len(SEEDS) - 1))
    c = SEEDS[seed]
    argv_template, reads_coloring = data.draw(st.sampled_from(COMMANDS))
    with tempfile.TemporaryDirectory() as work:
        if c.dimension == 2 and data.draw(st.booleans()):
            input_path = os.path.join(work, "in.off")
            save(c, input_path)
            with open(input_path, encoding="utf-8") as fh:
                text = fh.read()
            if data.draw(st.booleans()):
                text = mutate_off(data, text)
        else:
            input_path = os.path.join(work, "in.json")
            doc = complex_to_dict(c)
            if data.draw(st.integers(0, 2)):
                doc = mutate_tree(data, doc)
            text = json.dumps(doc)
        with open(input_path, "wb") as fh:
            fh.write(mutate_bytes(data, text))
        coloring_path = os.path.join(work, "colors.json")
        colors = {"colors": COLORS[seed]}
        if data.draw(st.booleans()):
            colors = mutate_tree(data, colors)
        with open(coloring_path, "wb") as fh:
            fh.write(mutate_bytes(data, json.dumps(colors)))

        fill = {"input": input_path, "coloring": coloring_path, "dir": work}
        argv = [a.format(**fill) for a in argv_template]
        before = sorted(os.listdir(work))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        if code:
            assert sorted(os.listdir(work)) == before, (argv, code)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    message = err.getvalue()
    refused = [a for a in argv if a in ("--width", "--height")]
    if refused:  # the option is judged before any file is read
        assert code == 2 and message.startswith(f"error: {refused[0]}: "), (argv, message)
    if code in (2, 3):
        paths = refused or [a for a in argv if a.startswith(work)]
        assert message.startswith("error: "), message
        assert any(message.startswith(f"error: {p}") for p in paths), (argv, message)
        assert message.count("\n") == 1 and len(message) < 400 + len(work), message


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mutated_certificates_are_refused_by_name_or_color(data):
    # A certificate document loads or is refused with an InputError that
    # names its file; one that loads colors its complex validly or is
    # refused by `color`, and no other exception escapes.
    k, doc = data.draw(st.sampled_from(CERTIFICATES))
    c = SEEDS[k]
    if data.draw(st.booleans()):  # a forged order: two steps swapped
        doc = copy.deepcopy(doc)
        steps, n = doc["steps"], len(doc["steps"])
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        steps[i], steps[j] = steps[j], steps[i]
    if data.draw(st.integers(0, 2)):
        doc = mutate_tree(data, doc)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "cert.json")
        with open(path, "wb") as fh:
            fh.write(mutate_bytes(data, json.dumps(doc)))
        try:
            cert = load_certificate(path)
        except InputError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)
            return
    try:
        col = color(c, cert)
    except InputError:
        return
    assert verify_coloring(c, col) == (True, [])
