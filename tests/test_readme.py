"""The configs of the README's CLI walkthrough build through the CLI, so an
example that names a removed key fails here rather than for a reader."""

import json
import re
from pathlib import Path

from aepoison.cli import _load_config, main
from aepoison.harness import GridSpec

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def readme_configs() -> dict[str, str]:
    """Each heredoc `cat > name.json << 'EOF'` by name, and the grid block."""
    configs = dict(re.findall(r"cat > (\w+\.json) << 'EOF'\n(.*?)\nEOF\n", README, re.S))
    configs["grid.json"] = re.search(r"```json\n(\{\"schema\": \"aepoison/grid/v1\".*?)```", README, re.S)[1]
    return configs


def test_readme_configs_build(tmp_path):
    configs = readme_configs()
    assert sorted(configs) == ["attack.json", "detector.json", "grid.json", "signal.json"]
    for name, text in configs.items():
        (tmp_path / name).write_text(text)

    def run(*argv: str) -> None:
        assert main([str(a) for a in argv]) == 0, argv

    clean, attacked, ranges = tmp_path / "clean.csv", tmp_path / "attacked.csv", tmp_path / "range.json"
    run("gen", "--spec", tmp_path / "signal.json", "--out", clean)
    run("attack", "--series", clean, "--attack", tmp_path / "attack.json", "--feature", "ch0",
        "--period", "20", "--out", attacked, "--range-out", ranges)
    assert json.loads(ranges.read_text())["magnitude"] == json.loads(configs["attack.json"])["magnitude"]
    model = tmp_path / "model.npz"
    run("train", "--series", clean, "--detector", tmp_path / "detector.json", "--out", model)
    run("score", "--model", model, "--series", attacked, "--out", tmp_path / "report.json")
    spec = _load_config(str(tmp_path / "grid.json"), "grid", GridSpec.from_dict)
    assert spec.cell_count() == 6
