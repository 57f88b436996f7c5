"""`python -m natvb`: the natvb command line, as natvb.cli.main runs it."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
