"""The README's CLI walkthrough (steps 1-5) and its Python API snippet run as
written."""

import shlex
from pathlib import Path

from varispace.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def walkthrough_block() -> str:
    """The walkthrough's shell block, as written."""
    text = README.read_text(encoding="utf-8")
    return text.split("## CLI walkthrough", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]


def walkthrough_steps() -> list[tuple[str, object]]:
    """The walkthrough's shell block as ("file", (name, text)), ("python",
    source) and ("cli", argv) steps, in order."""
    lines = iter(walkthrough_block().replace("\\\n", " ").splitlines())
    steps = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("cat > ") and line.endswith("<<EOF"):
            name = line.split()[2]
            body = "".join(f"{body_line}\n" for body_line in iter(lines.__next__, "EOF"))
            steps.append(("file", (name, body)))
        elif line == 'python3 -c "':
            source = "\n".join(iter(lines.__next__, '"'))
            steps.append(("python", source))
        elif line.startswith("varispace "):
            steps.append(("cli", shlex.split(line)[1:]))
        else:
            raise AssertionError(f"unrecognised walkthrough line: {line}")
    return steps


def test_walkthrough_is_parsed_whole():
    kinds = [kind for kind, _ in walkthrough_steps()]
    assert kinds == ["file", "cli", "cli", "cli", "cli", "cli", "python", "cli", "cli", "cli"]


def test_walkthrough_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for kind, step in walkthrough_steps():
        if kind == "file":
            name, body = step
            Path(name).write_text(body)
        elif kind == "python":
            exec(compile(step, "README walkthrough", "exec"), {})
        else:
            code = main(step)
            # a stray warning in the documented walkthrough is a failure too
            assert (code, capsys.readouterr().err) == (0, ""), step
    for name in ("emb.csv", "space.vsp", "spectrum.csv", "anon.csv", "trials.txt",
                 "primary_sweep.csv", "secondary_sweep.csv"):
        assert (tmp_path / name).stat().st_size > 0, name


def test_python_api_snippet_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    source = text.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(source, "README Python API", "exec"), names)
    assert len(names["anon"]) == len(names["emb"]) == 800
    assert [row.size for row in names["sweep"].rows] == list(range(0, names["knee"].index + 1, 5))
