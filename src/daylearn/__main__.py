"""`python -m daylearn ...` runs the command-line interface."""
from .cli import main

main()
