"""Boundary fuzzing through `cli.main`, in process.

Valid instances of the three JSON documents are mutated: the run config,
the checkpoint header (its length and CRC re-sealed, so that the header's
grammar is what gets tested) and the instance CSV's metadata row. The
mutations are byte flips, truncations, splices, an array around the
object and number-grammar edits, deep nesting among them. Each mutant
either loads or fails with its document's exit code: no exception escapes
`main`, stderr holds one typed error and stdout stays empty. A mutant that
loads stops the command there, so a config that now asks for many epochs
trains none of them.
"""

import contextlib
import io
import json
import re
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etsfore import cli, data, trainer

CONFIG = {
    "model": {"lookback": 12, "horizon": 4, "dim": 4, "ff_dim": 4, "layers": 1, "heads": 1,
              "top_k": 1, "dropout": 0.1},
    "train": {"base_lr": 1e-3, "epochs": 1, "warmup_epochs": 0, "batch_size": 8, "seed": 1},
    "split": {"train": 0.7, "val": 0.1, "test": 0.2},
}
# put in place of one number: JSON has no sign or `_`, Python's json reads
# an infinity or NaN that no field takes, int() refuses more than
# sys.get_int_max_str_digits() digits, and json nests past the recursion limit
NUMBER_EDITS = ("+1", "1_0", "1e999", "NaN", "9" * 5000, "[" * 3000 + "]" * 3000)


class Loaded(Exception):
    """Raised in place of the rest of a command once its document has loaded."""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A tiny instance CSV, a run config and the checkpoint it trains."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {name: root / name for name in ("synth.csv", "run.json", "model.etsf")}
    paths["run.json"].write_text(json.dumps(CONFIG))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["synth", "--out", str(paths["synth.csv"]), "--n", "20",
                         "--lookback", "12", "--horizon", "4"]) == 0
        assert cli.main(["train", "--config", str(paths["run.json"]), "--data",
                         str(paths["synth.csv"]), "--out", str(paths["model.etsf"])]) == 0
    return paths


def sealed(ckpt: bytes, header: bytes) -> bytes:
    """ckpt with header as its JSON header, the length and the CRC re-sealed."""
    hlen = int.from_bytes(ckpt[8:12], "little")
    body = ckpt[:8] + len(header).to_bytes(4, "little") + header + ckpt[12 + hlen : -4]
    return body + zlib.crc32(body).to_bytes(4, "little")


@st.composite
def mutants(draw, text: bytes) -> bytes:
    """text with one byte flip, truncation, splice, wrapping or number-grammar edit."""
    n = len(text)
    kind = draw(st.sampled_from(["flip", "truncate", "splice", "wrap", "number"]))
    if kind == "flip":
        at = draw(st.integers(0, n - 1))
        return text[:at] + bytes([draw(st.integers(0, 255))]) + text[at + 1 :]
    if kind == "truncate":
        return text[: draw(st.integers(0, n - 1))]
    if kind == "splice":  # j < i repeats text[j:i], j > i drops text[i:j]
        i, j = draw(st.integers(0, n)), draw(st.integers(0, n))
        return text[:i] + text[j:]
    if kind == "wrap":  # the object in an array: valid JSON, but no object at the root
        start, end = text.index(b"{"), text.rindex(b"}") + 1
        return text[:start] + b"[" + text[start:end] + b"]" + text[end:]
    start, end = draw(st.sampled_from([m.span() for m in re.finditer(rb"-?[0-9][0-9.eE+-]*",
                                                                        text)]))
    return text[:start] + draw(st.sampled_from(NUMBER_EDITS)).encode() + text[end:]


def stop_when_loaded(module, name: str):
    """A patch of module.name that raises Loaded once the real call returns."""
    real = getattr(module, name)

    def loaded(*args):
        real(*args)
        raise Loaded

    return mock.patch.object(module, name, loaded)


def document(files, name: str):
    """(the document's JSON text, a writer of a mutant that returns the argv
    reading it, its reader as (module, name), its exit code)."""
    synth, config, ckpt = files["synth.csv"], files["run.json"], files["model.etsf"]
    mutant = synth.parent / f"mutant-{name}"
    if name == "run_config":
        def write(text):
            mutant.write_bytes(text)
            return ["train", "--config", str(mutant), "--data", str(synth),
                    "--out", str(synth.parent / "unused.etsf")]
        return config.read_bytes(), write, (cli, "load_run_config"), cli.EXIT_USAGE
    if name == "header":
        raw = ckpt.read_bytes()

        def write(text):
            mutant.write_bytes(sealed(raw, text))
            return ["evaluate", "--model", str(mutant), "--data", str(synth)]
        hlen = int.from_bytes(raw[8:12], "little")
        return raw[12 : 12 + hlen], write, (trainer, "load_checkpoint"), cli.EXIT_DATA
    raw = synth.read_bytes()
    end = raw.index(b"\n")  # line 1, the metadata row, is raw[: end + 1]

    def write(text):
        mutant.write_bytes(text + raw[end:])
        return ["evaluate", "--model", str(ckpt), "--data", str(mutant)]
    return raw[:end], write, (data, "read_dataset"), cli.EXIT_DATA


@pytest.mark.parametrize("name", ["run_config", "header", "metadata"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=st.data())
def test_each_mutant_loads_or_fails_typed(files, name, drawn):
    text, write, reader, code = document(files, name)
    argv = write(drawn.draw(mutants(text), label="mutant"))
    out, err = io.StringIO(), io.StringIO()
    with stop_when_loaded(*reader), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Loaded:
            return
    assert rc == code, err.getvalue()
    assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1, err.getvalue()
