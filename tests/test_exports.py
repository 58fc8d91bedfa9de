"""The package exports exactly the public names of its modules, and
README's library example runs on them."""

import importlib
import inspect
import re
from pathlib import Path

import lzs_sim
import lzs_sim.errors as errors

MODULES = ("analysis", "errors", "master", "model", "rates", "sweep")


def test_exports_match_the_modules():
    exported = set()
    for name in MODULES:
        module = importlib.import_module(f"lzs_sim.{name}")
        for attr in module.__all__:
            getattr(module, attr)  # a stale entry raises AttributeError
        exported.update(module.__all__)
    exported.update(
        cls.__name__
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == errors.__name__
    )
    assert sorted(lzs_sim.__all__) == sorted(exported)


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("(201, 201) ")
