"""The benchmark's workloads, by name."""

from census import Census
from cliwork import Cli
from families import Families
from lattices import Lattices

_CLASSES = {w.name: w for w in (Census, Families, Lattices, Cli)}


def make(name, root, seed):
    return _CLASSES[name](root, seed)
