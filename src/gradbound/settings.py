"""What a setting of a run is, and the one check of every setting.

A run's settings are the fields of three frozen dataclasses:
``cli.SweepSpec``, ``bounds.EstimatorConfig`` and ``training.TrainConfig``
(the CLI's ``seed`` sets their three seeds).  Each field is declared with
:func:`setting`, which records its :class:`Kind` in the field's
metadata, and each class's ``__post_init__`` calls :func:`check_settings`,
which holds every setting to its kind; the classes keep only the rules
between fields.  Which experiments read a setting is the CLI's table
(``cli._READS``).  :data:`SEED` is also the rule of every seed that keys
a random stream (``gaussians.stream_rng``).
"""

import dataclasses
import math
import numbers
from typing import Callable, NamedTuple

# A seed keys Philox as one uint64; a seed outside [0, SEED_LIMIT) would
# alias one inside it (-1 and 2**64 - 1).
SEED_LIMIT = 1 << 64


class ConfigError(ValueError):
    """A setting or a config source that a run refuses; the CLI exits 2."""


class Kind(NamedTuple):
    """The values a setting takes: ``holds`` tests one, and ``text`` names
    them in the error that refuses one."""

    text: str
    holds: Callable[[object], bool]


def _real(value) -> bool:
    # A bool compares as 0 or 1, but it is not a real.
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# type(), not isinstance(): a bool is an int, and not a count or a seed.
COUNT = Kind("an integer >= 1", lambda v: type(v) is int and v >= 1)
SEED = Kind("an integer in [0, 2**64)", lambda v: type(v) is int and 0 <= v < SEED_LIMIT)
POSITIVE = Kind("finite and positive", lambda v: _real(v) and 0 < v < math.inf)
NONNEGATIVE = Kind("finite and nonnegative", lambda v: _real(v) and 0 <= v < math.inf)
FRACTION = Kind("in [0, 1)", lambda v: _real(v) and 0 <= v < 1)
FINITE = Kind("finite", lambda v: _real(v) and math.isfinite(v))
# None is a path or spec not given.
STRING = Kind("a string", lambda v: v is None or isinstance(v, str))


def grid(kind: Kind, nonempty: bool = False) -> Kind:
    """A list or tuple of values of ``kind``, with an entry at least if
    ``nonempty``."""
    return Kind(f"a {'nonempty ' if nonempty else ''}list whose entries are each {kind.text}",
                lambda v: (isinstance(v, (list, tuple)) and len(v) >= nonempty
                           and all(map(kind.holds, v))))


def setting(kind: Kind, default):
    """A dataclass field of ``kind`` whose default is ``default``."""
    return dataclasses.field(default=default, metadata={"kind": kind})


def check_settings(config, section: str = "") -> None:
    """Raise ConfigError naming the first setting of the dataclass
    ``config`` whose value is not of its kind.  A section's class passes
    its ``section`` ("estimator."), so the error names the field as the
    CLI's table does (``estimator.seed``)."""
    for f in dataclasses.fields(config):
        kind = f.metadata.get("kind")
        if kind and not kind.holds(getattr(config, f.name)):
            raise ConfigError(f"{section}{f.name} must be {kind.text}")
