"""`python -m hyperwalks` runs the command-line interface."""

from .cli import entry

entry()
