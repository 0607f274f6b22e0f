import importlib.util
from pathlib import Path

import pytest

GEN_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "gen_inputs.py"


def load_gen_inputs():
    """The benchmark's seeded capture writers (``perfbench/gen_inputs.py``)."""
    spec = importlib.util.spec_from_file_location("gen_inputs", GEN_INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def gen_inputs():
    return load_gen_inputs()
