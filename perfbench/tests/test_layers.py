"""The module -> layer map has no gaps and rejects unknown modules."""

from pathlib import Path

from perfbench.layers import LAYERS, LAYER_OF, unmapped

SRC = Path(__file__).resolve().parents[2] / "src"


def test_unmapped_module_is_rejected():
    assert unmapped(["repro.cpu.pipeline", "repro.cpu.newthing",
                     "json", "reprocessing"]) == ["repro.cpu.newthing"]


def test_every_source_module_is_in_exactly_one_layer():
    listed = [m for modules in LAYERS.values() for m in modules]
    assert len(listed) == len(set(listed)) == len(LAYER_OF)
    on_disk = set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        on_disk.add(".".join(parts))
    assert sorted(on_disk - set(listed)) == []
    assert sorted(set(listed) - on_disk) == []
