"""An MRSS map written one stage at a time, for the tests of a map stage.

`cli.build_map` folds every map stage into one copy of its grid's lattice.
`staged` writes one stage into a copy of its own, so a test can read the
map after each stage and check that the map it started from is unchanged.
"""

from gridshare.grid import ResourceGrid
from gridshare.mrss import MrssCategoryMap


def staged(source, write, *args):
    """The map of `source`, a grid or a map, after `write(labels, *args)`
    on a copy of its lattice; `source` is left as it is."""
    grid = source.grid if isinstance(source, MrssCategoryMap) else source
    labels = grid.lattice.copy()
    write(labels, *args)
    return MrssCategoryMap(ResourceGrid(grid.config, labels))
