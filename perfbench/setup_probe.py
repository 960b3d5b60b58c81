"""orbstab's set-up, as the benchmark times it.

Set-up is importing the package from ``src/`` and letting its lazy caches
fill: the polyhedral rotation groups and their special orbits, which the
first polyhedral witness would otherwise build.  ``run.py`` calls
``set_up`` in its own process; run as a script, this file does the same
once in a fresh interpreter and prints the seconds it took:

    python3 perfbench/setup_probe.py src
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


class MissingSource(RuntimeError):
    """The checkout holds no importable ``src/orbstab`` package."""


def set_up(src: Path):
    """Import orbstab from ``src`` and fill its lazy caches; return the package."""
    src = src.resolve()
    if not (src / "orbstab" / "__init__.py").is_file():
        raise MissingSource(f"no orbstab package under {src}")
    sys.path.insert(0, str(src))
    import orbstab
    if not Path(orbstab.__file__).resolve().is_relative_to(src):
        raise MissingSource(f"imported orbstab from {orbstab.__file__}, "
                            f"not from {src}")
    cl = orbstab.classifier
    for kind, tag in ((cl.A5, "V12"), (cl.S4, "V6"), (cl.A4, "V4a")):
        orbstab.polyhedral_orbit(kind, tag)
    return orbstab


def main() -> int:
    start = time.perf_counter()
    set_up(Path(sys.argv[1]))
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
