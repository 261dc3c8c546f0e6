import lidarplace as lp
from lidarplace import bees, cost, geometry, odr, scenario, segmentation

LIBRARY_MODULES = (bees, cost, geometry, odr, scenario, segmentation)


def test_each_exported_name_is_its_modules_object():
    # A star import lets a later module shadow an earlier module's name.
    assert len(set(lp.__all__)) == len(lp.__all__)
    assert lp.__all__ == [name for module in LIBRARY_MODULES for name in module.__all__]
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(lp, name) is getattr(module, name), f"{module.__name__}.{name}"
