"""Known-bad fixture: a phase literal not in the pinned table (EM006)."""


def run(device):
    with device.phases.phase("sort"):
        pass
