"""The README's library example runs, and its config example parses, against the package as it is."""

import re
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path

from aplf import HyperParams
from aplf.harness import _CONFIG_FIELDS, _HP_FIELDS, load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out
    assert printed.startswith("[") and "nan" not in printed


def test_the_readme_config_example_parses_every_key(tmp_path, monkeypatch):
    section = README.read_text().split("### Config file\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, flags=re.DOTALL | re.MULTILINE).group(1)
    keys = [line.partition("=")[0].strip() for line in block.splitlines() if line and not line.startswith("#")]
    assert sorted(keys) == sorted([*_HP_FIELDS, *_CONFIG_FIELDS])
    # The example names its schedule file relative to the working directory.
    monkeypatch.chdir(tmp_path)
    Path("schedule.csv").write_text("2021-03-12,06:00,6\n")
    Path("run.cfg").write_text(block)
    config = load_config("run.cfg")
    assert config.hp == HyperParams()
    assert (config.load_unit, config.temperature_unit, config.init_mode) == ("GW", "F", "zero")
    assert config.prediction_time == time(11, 0) and config.emit_quantiles is False
    assert config.train_end == datetime(2021, 3, 11, tzinfo=timezone.utc)
    assert config.test_end == datetime(2021, 6, 1, tzinfo=timezone.utc)
    assert config.holidays == {date(2021, 12, 25), date(2022, 1, 1)}
    assert config.step == timedelta(minutes=60)
    assert config.schedule == {date(2021, 3, 12): (time(6, 0), 6)}
