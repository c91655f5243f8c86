"""In-memory mutations of real ``src/`` modules.

A test that claims a check catches a class of bug shows it on a seeded
instance: :func:`mutated` compiles a copy of a module's source with one
change applied and hands back the copy; the checkout is never written.
"""

import os
import types


def mutated(module, old, new):
    """A fresh module compiled from ``module``'s source with ``old`` —
    which must occur exactly once — replaced by ``new``."""
    path = module.__file__
    with open(path, encoding="utf-8") as f:
        text = f.read()
    assert text.count(old) == 1, \
        f"mutation anchor drifted in {os.path.basename(path)}"
    copy = types.ModuleType(module.__name__)
    copy.__package__ = module.__package__
    copy.__file__ = path
    exec(compile(text.replace(old, new), path, "exec"), copy.__dict__)
    return copy
