import inspect
import types

import polybell
from polybell import exact_core, numeric_bridge, pbell


def test_all_lists_every_public_name_and_nothing_else():
    for name in polybell.__all__:
        value = getattr(polybell, name)
        assert not isinstance(value, types.ModuleType), name
    public = {
        name
        for name, value in vars(polybell).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert public <= set(polybell.__all__)
    for module in (exact_core, numeric_bridge, pbell):
        assert set(module.__all__) <= set(polybell.__all__), module.__name__
    assert "__version__" in polybell.__all__
    assert len(polybell.__all__) == len(set(polybell.__all__))
