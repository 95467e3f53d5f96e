"""Test session settings: no bytecode cache is written, in this interpreter or in the
``python -m shiftmodels.cli`` subprocesses that inherit its environment, so a test run
leaves no ``__pycache__`` under ``src/`` to change what a later benchmark run measures."""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
