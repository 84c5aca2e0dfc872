"""Fixture: fully compliant core module (no findings expected)."""


def load(rel):
    device = rel.device
    with device.phases.phase("load"):
        with device.memory.hold(len(rel)):
            rows = list(rel.data.scan())
    return rows
