"""`python -m mdtail ...` runs the mdtail command line."""

from .report import cli_main

cli_main()
