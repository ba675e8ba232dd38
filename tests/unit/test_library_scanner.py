"""Hidden-code scanner tests."""

from repro.core.scanner import HiddenCodeScanner
from repro.malware.rootkits import KBEAST_SPEC, SEBEK_SPEC


class TestHiddenCodeScanner:
    def test_clean_guest_has_no_hidden_code(self, machine):
        scanner = HiddenCodeScanner(machine)
        assert scanner.scan() == []
        assert "no hidden" in scanner.report()

    def test_visible_module_not_flagged(self, machine):
        # load sebek but do NOT hide it: still visible via VMI
        machine.image.load_module("sebek", SEBEK_SPEC.functions)
        scanner = HiddenCodeScanner(machine)
        assert scanner.scan() == []

    def test_hidden_module_detected(self, machine):
        machine.image.load_module("kbeast", KBEAST_SPEC.functions)
        machine.image.hide_module("kbeast")
        scanner = HiddenCodeScanner(machine)
        regions = scanner.scan()
        assert len(regions) == 1
        region = regions[0]
        module = machine.image.modules["kbeast"]
        assert region.start == module.base
        assert region.functions == len(KBEAST_SPEC.functions)
        assert "hidden code" in scanner.report()

    def test_rehidden_module_region_bounds(self, machine):
        machine.image.load_module("kbeast", KBEAST_SPEC.functions)
        machine.image.hide_module("kbeast")
        module = machine.image.modules["kbeast"]
        region = HiddenCodeScanner(machine).scan()[0]
        assert module.base <= region.start < region.end
        assert region.end <= module.base + module.size + 4096
