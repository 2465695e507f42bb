"""The value-class contract, checked on every class `gridshare.value.value` marks."""

import enum
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import gridshare
from gridshare import budget, grid, lte, mrss, nr, scenario
from gridshare.budget import BudgetRow, DssLayout, OverheadReport, OverheadRow
from gridshare.errors import ConfigError
from gridshare.grid import CarrierConfig, ResourceGrid, TddPattern, make_grid
from gridshare.lte import LteCellConfig
from gridshare.mrss import (
    ControlMode,
    InterferenceReport,
    Mitigation,
    MrssCategoryMap,
    SimResult,
    TrafficModel,
)
from gridshare.nr import BeamSignal, Coreset1Spec, CsiRsSpec, NrOverlaySet, Signal, TrsSpec
from gridshare.scenario import (
    BudgetSpec,
    IotReservation,
    MrssSpec,
    Scenario,
    SixgSsbSpec,
    SweepParameter,
    SweepSpec,
)
from gridshare.value import Int, asdict, is_value, replace, value

import dense_reference as ref

CARRIER = CarrierConfig(15, n_prb=2)
GRID = make_grid(CARRIER)
CMAP = MrssCategoryMap(GRID)
ROW = OverheadRow("SSB", "4 beams", 960, 1.5, 2.0)

# Class -> (the arguments its fields have no default for, a change its
# __post_init__ or a field's bound rejects, or None). A grid holds a frozen
# lattice, which compares and hashes by the labels of each slot, and a map
# holds a grid; a dense array is neither.
EXAMPLES = {
    TddPattern: ({"cycle": "DDDSU"}, {"special_split": (6, 4, 5)}),
    CarrierConfig: ({"scs_khz": 15, "n_prb": 2}, {"n_prb": 0}),
    ResourceGrid: ({"config": CARRIER, "lattice": GRID.lattice},
                   {"lattice": np.zeros((1, 14, 24), dtype=np.uint8)}),
    DssLayout: ({}, {"lte_pdcch": 4}),
    BudgetRow: ({"crs_ports": 1, "dss_re": 120, "nr_re": 132, "lte_re": 136,
                 "loss_vs_nr_pct": 9.09, "loss_vs_lte_pct": 11.76}, None),
    OverheadRow: ({"signal_name": "SSB", "config_summary": "4 beams", "re_count": 960,
                   "pct_of_total": 1.5, "pct_of_downlink": 2.0}, None),
    OverheadReport: ({"rows": (ROW,), "total_row": ROW, "total_re": 64000,
                      "downlink_re": 48000}, None),
    LteCellConfig: ({}, {"crs_ports": 3}),
    BeamSignal: ({"beams": 4, "prbs": 20, "symbols": 4}, {"beams": -1}),
    Coreset1Spec: ({"prbs": 24, "symbols": 1}, {"slots": -1}),
    CsiRsSpec: ({"ports": 2, "density_re_per_port_per_prb": 1, "prbs": 24,
                 "occasions_per_period": 1}, {"ports": -1}),
    TrsSpec: ({"prbs": 24, "slots_per_occasion": 2, "re_per_prb_per_slot": 6, "beams": 1,
               "occasions_per_period": 1}, {"beams": -1}),
    NrOverlaySet: ({"period_ms": 20}, {"period_ms": 0}),
    Signal: ({"name": "SSB", "field": "ssb", "label": grid.ReLabel.NR_SSB}, None),
    ControlMode: ({}, {"shared_fraction": 0.5}),
    Mitigation: ({"kind": "SymbolLevelMute"}, {"kind": "Shout"}),
    TrafficModel: ({"demand_5g": 10, "demand_6g": (0, 5)}, {"seed": -1}),
    MrssCategoryMap: ({"grid": GRID}, {"grid": np.zeros((1, 14, 24), dtype=np.uint8)}),
    SimResult: ({"grants_5g": (1,), "grants_6g": (2,), "unused": (0,), "dropped_5g": (0,),
                 "dropped_6g": (0,), "shared_pool_size": 3, "total_5g": 1, "total_6g": 2,
                 "unused_shared": 0, "pure_5g": 1, "pure_6g": 2}, None),
    InterferenceReport: ({"pool_re": 102, "clean_re": 90, "sacrificed_re": 12,
                          "dirty_re": 0}, None),
    IotReservation: ({"prb_start": 0, "prb_stop": 1}, {"prb_start": -1}),
    SixgSsbSpec: ({"occasions": ((0, 0, 0),)}, {"prbs": 0}),
    MrssSpec: ({}, None),
    BudgetSpec: ({}, None),
    SweepParameter: ({"path": "policy", "values": ("Priority5G",)}, None),
    SweepSpec: ({"command": "simulate",
                 "parameters": (SweepParameter("policy", ("Priority5G",)),)}, None),
    Scenario: ({"carrier": CARRIER}, None),
}
ARRAY_FIELDS = {ResourceGrid: ("lattice",)}
METHODS = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__")


def defined_classes():
    modules = (grid, lte, nr, budget, mrss, scenario)
    return [obj for m in modules for obj in vars(m).values()
            if isinstance(obj, type) and obj.__module__ == m.__name__]


MARKED = [c for c in defined_classes() if "__value_spec__" in vars(c)]


def fields(cls):
    return cls.__value_spec__.names


def example(cls):
    return cls(**EXAMPLES[cls][0])


def test_every_annotated_class_is_a_marked_value_class():
    """A class with fields that is not marked (a `@dataclass` brought back,
    say) fails here, and the example table names exactly the marked ones."""
    for cls in defined_classes():
        if issubclass(cls, (enum.Enum, Exception)):
            continue
        if getattr(cls, "__annotations__", None):
            assert cls in MARKED, cls.__name__
        assert not hasattr(cls, "__dataclass_fields__"), cls.__name__
    assert set(MARKED) == set(EXAMPLES)
    assert len(MARKED) == 27


@pytest.mark.parametrize("method", METHODS)
def test_marked_classes_share_one_method_set(method):
    assert len({getattr(cls, method) for cls in MARKED}) == 1


@pytest.mark.parametrize("cls", MARKED, ids=lambda c: c.__name__)
class TestValueContract:
    def test_frozen(self, cls):
        obj = example(cls)
        name = fields(cls)[0]
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
        assert getattr(obj, name) is before
        assert not hasattr(obj, "not_a_field")

    def test_equal_fields_equal_objects_and_hashes(self, cls):
        a, b = example(cls), example(cls)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_other_class_with_same_fields_is_unequal(self, cls):
        obj = example(cls)
        spec = cls.__value_spec__
        twin_cls = value(type("Twin", (), {"__annotations__": dict.fromkeys(spec.names, "object"),
                                           **spec.defaults}))
        twin = twin_cls(*(getattr(obj, name) for name in spec.names))
        assert obj.__eq__(twin) is NotImplemented
        assert obj != twin and twin != obj

    def test_construction(self, cls):
        required, _ = EXAMPLES[cls]
        obj = cls(**required)
        values = [getattr(obj, name) for name in fields(cls)]
        assert cls(*values) == obj
        assert cls(**dict(zip(fields(cls), values))) == obj
        half = len(values) // 2
        assert cls(*values[:half], **dict(zip(fields(cls)[half:], values[half:]))) == obj
        for name, default in cls.__value_spec__.defaults.items():
            if name not in required:
                assert getattr(obj, name) == default

    def test_bad_arguments_raise_type_error(self, cls):
        required, _ = EXAMPLES[cls]
        values = [getattr(example(cls), name) for name in fields(cls)]
        first = fields(cls)[0]
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(**required, bogus=1)
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            cls(values[0], **{first: values[0]})
        with pytest.raises(TypeError, match="positional arguments"):
            cls(*values, None)
        for name in required:
            rest = {k: v for k, v in required.items() if k != name}
            with pytest.raises(TypeError, match=f"missing required arguments: '{name}'"):
                cls(**rest)

    def test_post_init_checks_also_run_through_replace(self, cls):
        required, bad = EXAMPLES[cls]
        obj = example(cls)
        assert replace(obj) == obj
        if bad is None:
            assert cls.__value_spec__.post_init is None
            assert not cls.__value_spec__.bounds or cls is Scenario  # any integer is a seed
            return
        with pytest.raises(ConfigError):
            cls(**{**required, **bad})
        with pytest.raises(ConfigError):
            replace(obj, **bad)

    def test_repr(self, cls):
        obj = example(cls)
        text = repr(obj)
        assert text.startswith(f"{cls.__qualname__}(") and text.endswith(")")
        hidden = ARRAY_FIELDS.get(cls, ())
        for name in fields(cls):
            shown = f"{name}={getattr(obj, name)!r}" if name not in hidden else f"{name}="
            assert (shown in text) == (name not in hidden), name

    def test_asdict(self, cls):
        obj = example(cls)
        d = asdict(obj)
        assert list(d) == list(fields(cls))
        for name, v in d.items():
            field = getattr(obj, name)
            if is_value(field):
                assert v == asdict(field)
            else:
                assert v is field


def test_repr_matches_the_field_order():
    assert repr(CARRIER) == ("CarrierConfig(scs_khz=15, n_prb=2, duplex='FDD', span_ms=1, "
                             "tdd_pattern=None)")
    assert repr(GRID) == f"ResourceGrid(config={CARRIER!r})"
    assert repr(CMAP) == f"MrssCategoryMap(grid={GRID!r})"


def test_grid_and_map_take_lattices_only():
    """A grid takes a `Lattice` only, and a map a grid only: never a dense buffer."""
    dense = ref.gather(GRID.lattice)
    for labels in (dense, memoryview(dense.tobytes()).cast("B", dense.shape), bytes(dense)):
        with pytest.raises(ConfigError, match="Lattice"):
            ResourceGrid(CARRIER, labels)
        with pytest.raises(ConfigError, match="ResourceGrid"):
            MrssCategoryMap(labels)
    with pytest.raises(ConfigError, match="ResourceGrid, got Lattice"):
        MrssCategoryMap(GRID.lattice)
    with pytest.raises(ConfigError, match=r"shape \(1, 14, 12\) != \(1, 14, 24\)"):
        ResourceGrid(CARRIER, ref.lattice_of(dense[:, :, :12]))


def test_equal_slots_make_equal_grids_and_maps():
    """Lattices compare and hash by the labels of each slot, however their
    rows are shared, and so do the grids and maps that hold them."""
    carrier = CarrierConfig(15, n_prb=2, span_ms=3)
    grid = make_grid(carrier)
    dense = ref.gather(grid.lattice)
    per_slot = ref.lattice_of(dense)
    assert [len(set(map(id, lattice.slots))) for lattice in (grid.lattice, per_slot)] == [1, 3]
    assert per_slot == grid.lattice and hash(per_slot) == hash(grid.lattice)
    again = ResourceGrid(carrier, per_slot)
    assert again == grid and hash(again) == hash(grid)
    assert MrssCategoryMap(again) == MrssCategoryMap(grid)
    assert hash(MrssCategoryMap(again)) == hash(MrssCategoryMap(grid))
    changed = dense.copy()
    changed[2, 0, 0] = 1
    assert ref.lattice_of(changed) != grid.lattice
    assert ResourceGrid(carrier, ref.lattice_of(changed)) != grid


def test_replace_changes_only_the_named_fields():
    changed = replace(CARRIER, n_prb=5)
    assert (changed.n_prb, changed.scs_khz, changed.duplex) == (5, CARRIER.scs_khz, "FDD")
    assert CARRIER.n_prb == 2
    with pytest.raises(ConfigError):
        replace(CARRIER, n_prb=0)
    with pytest.raises(ConfigError, match=r"scs_khz must be one of \[15, 30\], got 20"):
        replace(CARRIER, scs_khz=20)
    with pytest.raises(ConfigError, match="n_prb must be <= 275, got 276"):
        replace(CARRIER, n_prb=276)
    with pytest.raises(TypeError):
        replace(CARRIER, bogus=1)


def test_a_bound_is_checked_before_post_init_and_names_its_field():
    seen = []

    @value(n=Int(0, 3), k=Int(choices=(1, 2)))
    class Toy:
        n: int
        k: object = None

        def __post_init__(self):
            seen.append(self.n)

    with pytest.raises(ConfigError, match=r"^n must be <= 3, got 4$"):
        Toy(4)
    with pytest.raises(ConfigError, match=r"^k must be one of \[1, 2\], got 3$"):
        Toy(1, 3)
    with pytest.raises(ConfigError, match=r"^n must be >= 0, got -1$"):
        replace(Toy(1), n=-1)
    assert seen == [1]
    # The bound, not the type: 2.0 lies inside it, and None is k's default.
    assert Toy(2.0).n == 2.0 and Toy(0).k is None
    assert seen == [1, 2.0, 0]
    # None is no value for a field whose default is not None.
    with pytest.raises(TypeError):
        Toy(None)


def test_asdict_of_nested_values():
    assert asdict(BudgetSpec()) == {
        "layout": {"lte_pdcch": 2, "nr_pdcch": 1, "dmrs_count": 2}, "ports": (1, 2, 4)}


def test_import_does_not_load_dataclasses():
    """Importing the CLI alone loads no `dataclasses` module."""
    src = pathlib.Path(gridshare.__file__).resolve().parents[1]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    code = "import sys, gridshare.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.split()
    assert out == ["False"]
