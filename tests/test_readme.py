"""The README's library example runs as printed and gives its documented values."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_runs_and_gives_its_documented_values():
    block = _python_block("Library quick start")
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    # the documented value rides in the expression line's comment
    (line,) = [line for line in block.splitlines() if "# 4.0 ==" in line]
    assert eval(line.split("#", 1)[0], namespace) == 4.0
    assert namespace["report"].all_passed
