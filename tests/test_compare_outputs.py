import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts", "compare_outputs.py")
_spec = importlib.util.spec_from_file_location("compare_outputs", _SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def write_csv(path, out, seed=1, value="0.5", flag="false"):
    config = {"experiment": "bound-vs-variance", "out": out, "seed": seed}
    path.parent.mkdir(exist_ok=True)
    path.write_text(f"# config: {json.dumps(config, sort_keys=True)}\n"
                    f"# timestamp: {seed}\n"
                    "depth,value,overflowed\n"
                    f"1,{value},{flag}\n")
    return str(path)


def test_output_path_in_config_is_ignored(tmp_path):
    old = write_csv(tmp_path / "old" / "b.csv", "old/b.csv")
    new = write_csv(tmp_path / "new" / "b.csv", "new/b.csv")
    assert compare_outputs.compare(old, new)


@pytest.mark.parametrize("change", [
    {"seed": 2}, {"value": str(0.5 * (1 + 1e-10))}, {"flag": "true"},
])
def test_other_differences_are_reported(change, tmp_path):
    old = write_csv(tmp_path / "old" / "b.csv", "b.csv")
    new = write_csv(tmp_path / "new" / "b.csv", "b.csv", **change)
    assert not compare_outputs.compare(old, new)


def test_within_tolerance_passes(tmp_path):
    old = write_csv(tmp_path / "old" / "b.csv", "b.csv")
    new = write_csv(tmp_path / "new" / "b.csv", "b.csv", value=repr(0.5 * (1 + 4e-16)))
    assert compare_outputs.compare(old, new)


def test_new_file_without_old_counterpart_is_a_difference(tmp_path, capsys):
    (tmp_path / "old").mkdir()
    new = write_csv(tmp_path / "new" / "b.csv", "b.csv")
    assert not compare_outputs.compare(str(tmp_path / "old" / "b.csv"), new)
    assert "missing" in capsys.readouterr().out


@pytest.mark.parametrize("only_in", ["old", "new"])
def test_directories_compare_every_name_found_in_either(only_in, tmp_path, capsys):
    for side in ("old", "new"):
        write_csv(tmp_path / side / "a.csv", "a.csv")
    assert compare_outputs.main(str(tmp_path / "old"), str(tmp_path / "new")) == 0
    write_csv(tmp_path / only_in / "b.csv", "b.csv")
    assert compare_outputs.main(str(tmp_path / "old"), str(tmp_path / "new")) == 1
    assert "b.csv: missing" in capsys.readouterr().out
