"""Stored reference outputs the workloads are checked against.

``reference.json`` and ``model.json`` are written by ``make_reference.py``
from the program itself; the benchmark fails a run whose outputs differ.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
#: the model characterized over the full suite (estimate, explore, serve)
MODEL_PATH = HERE / "model.json"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def load_model():
    from repro.core import EnergyMacroModel

    return EnergyMacroModel.load(str(MODEL_PATH))
