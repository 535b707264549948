"""``python -m photsub``: the photsub command line."""
from .experiments import main

if __name__ == "__main__":
    raise SystemExit(main())
