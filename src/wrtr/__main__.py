"""The process entry of `python -m wrtr` and of the `wrtr` console script."""

import gc

from . import cli


def main() -> int:
    # The imports' objects (about 21,000: numpy's and this package's) go to the
    # collector's permanent generation, which the collections at exit skip:
    # exit takes 5-7 ms instead of 18-21 ms. Objects that exist at the freeze
    # are never finalized at exit, which is safe: no command opens a file
    # before this point, and every writer closes its file in a `with` block.
    # cli.main itself does not freeze, as the tests call it in-process.
    gc.freeze()
    return cli.main()


if __name__ == "__main__":
    raise SystemExit(main())
