"""Stateful model-based testing of the EM file layer.

A hypothesis ``RuleBasedStateMachine`` drives a :class:`Device` through
arbitrary interleavings of file creation, appends, seals, sequential
reads and segment reads, checking against a plain-Python model:

* contents always match the model exactly;
* the I/O counter is monotone and consistent with page math
  (a sealed file of ``n`` tuples cost exactly ``ceil(n/B)`` writes);
* readers never return data from the wrong position.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, invariant,
                                 rule)

from repro.em import Device


class EMFileMachine(RuleBasedStateMachine):
    files = Bundle("files")

    def __init__(self):
        super().__init__()
        self.device = Device(M=8, B=4)
        self.model: dict[str, list[tuple]] = {}
        self.writers: dict[str, object] = {}
        self.sealed: set[str] = set()
        self.expected_writes = 0
        self.counter = 0

    @rule(target=files)
    def create_file(self):
        name = f"f{self.counter}"
        self.counter += 1
        f = self.device.new_file(name)
        self.model[name] = []
        self.writers[name] = f.writer()
        self._files = getattr(self, "_files", {})
        self._files[name] = f
        return name

    @rule(name=files, values=st.lists(st.integers(0, 50), min_size=0,
                                      max_size=10))
    def append(self, name, values):
        if name in self.sealed:
            return
        w = self.writers[name]
        for v in values:
            w.append((v,))
            self.model[name].append((v,))

    @rule(name=files)
    def seal(self, name):
        if name in self.sealed:
            return
        self.writers[name].close()
        self.sealed.add(name)
        n = len(self.model[name])
        self.expected_writes += -(-n // self.device.B) if n else 0

    @rule(name=files)
    def full_scan_matches_model(self, name):
        if name not in self.sealed:
            return
        f = self._files[name]
        before = self.device.stats.reads
        got = list(f.scan())
        assert got == self.model[name]
        n = len(self.model[name])
        assert self.device.stats.reads - before == -(-n // self.device.B)

    @rule(name=files, data=st.data())
    def segment_scan_matches_model(self, name, data):
        if name not in self.sealed:
            return
        f = self._files[name]
        n = len(self.model[name])
        start = data.draw(st.integers(0, n))
        stop = data.draw(st.integers(start, n))
        got = list(f.segment(start, stop).scan())
        assert got == self.model[name][start:stop]

    @rule(name=files, k=st.integers(1, 6))
    def chunked_read_matches_model(self, name, k):
        if name not in self.sealed:
            return
        f = self._files[name]
        reader = f.reader()
        out = []
        while not reader.exhausted:
            out.extend(reader.read_block(k))
        assert out == self.model[name]

    @invariant()
    def write_count_is_exact_for_sealed_files(self):
        # All sealed-file writes are accounted; in-flight buffers may
        # have flushed full pages already, so >= expected.
        assert self.device.stats.writes >= self.expected_writes

    @invariant()
    def io_counters_non_negative(self):
        assert self.device.stats.reads >= 0
        assert self.device.stats.writes >= 0


TestEMFileMachine = EMFileMachine.TestCase
TestEMFileMachine.settings = settings(max_examples=40,
                                      stateful_step_count=30,
                                      deadline=None)
