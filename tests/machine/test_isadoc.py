"""ISA reference generator tests."""

from repro.core.emulator import DEFAULT_SUPPORTED
from repro.machine.isa import OPCODES
from repro.machine.isadoc import render_isa_reference, write_isa_reference


class TestISADoc:
    def test_every_mnemonic_documented(self):
        text = render_isa_reference()
        for mnemonic in OPCODES:
            assert f"`{mnemonic}`" in text, mnemonic

    def test_support_split_reported(self):
        text = render_isa_reference()
        assert "| `movhpd` | `xmm, xmm/reg/mem/imm; mem, xmm` | 1 | 1 | no |" in text
        assert "| `movsd` | `xmm, xmm/reg/mem/imm; mem, xmm` | 1 | 1 | yes |" in text

    def test_totals_line(self):
        text = render_isa_reference()
        supported = sum(1 for m in OPCODES if m in DEFAULT_SUPPORTED)
        assert f"{supported} emulator-supported" in text

    def test_write(self, tmp_path):
        path = write_isa_reference(str(tmp_path / "ISA.md"))
        assert (tmp_path / "ISA.md").read_text().startswith("# ISA reference")
