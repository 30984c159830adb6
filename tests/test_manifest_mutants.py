"""Mutants of the builtin manifests: every one exits 0, 1 or 2 without a
traceback, and every exit 2 is one short positioned message.

The mutants of a manifest are fixed: each line deleted; each key renamed;
each value replaced by each of `VALUES`; and a copy of its first dotted
key, once with out-of-range indices and once repeated."""

import re

import pytest

from precourant.cli import builtin_manifests, main, resolve_manifest

VALUES = ["0", "-1", "x9", "1/0", ""]


def mutants(text):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        yield "\n".join(lines[:i] + lines[i + 1:])
        entry = line.split("#")[0]
        if "=" not in entry:
            continue
        key, value = (part.strip() for part in entry.split("=", 1))
        yield "\n".join(lines[:i] + [f"{key}x = {value}"] + lines[i + 1:])
        for v in VALUES:
            yield "\n".join(lines[:i] + [f"{key} = {v}"] + lines[i + 1:])
    first = next(line for line in lines if re.match(r"\w+(\.\d+)+ =", line))
    key, value = first.split(" = ", 1)
    far = ".".join([key.split(".")[0]] + ["99"] * key.count("."))
    yield text.replace(first, f"{first}\n{far} = {value}")
    yield text.replace(first, f"{first}\n{first}")


@pytest.mark.parametrize("manifest", builtin_manifests())
def test_every_mutant_exits_cleanly(tmp_path, capsys, manifest):
    path = tmp_path / "m.pcm"
    message = re.compile(rf"error: {re.escape(str(path))}: line \d+, column \d+: expected ")
    codes = set()
    for text in mutants(resolve_manifest(manifest).read_text()):
        path.write_text(text)
        code = main(["--manifest", str(path), "--task", "validate-bundle", "--quiet"])
        err = capsys.readouterr().err
        codes.add(code)
        assert code in (0, 1, 2), text
        assert "Traceback" not in err, text
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and message.match(lines[0]), (err, text)
        for line in err.splitlines():
            # the path is the test's own: the message after it is bounded
            assert len(line.replace(str(path), "m.pcm").encode()) <= 200, (err, text)
    assert 2 in codes
