"""Tests for the conversion registry and its error paths."""

import pytest

from repro.errors import ConversionError
from repro.formats import FORMAT_KINDS, build_format, display_name

from .conftest import make_random_coo


@pytest.fixture()
def coo():
    return make_random_coo(24, 24, 100, seed=91)


class TestRegistry:
    def test_all_kinds_listed(self):
        assert set(FORMAT_KINDS) == {
            "csr", "bcsr", "bcsr_dec", "bcsd", "bcsd_dec", "vbl",
        }

    def test_display_names(self):
        assert display_name("bcsr_dec") == "BCSR-DEC"
        assert display_name("vbl") == "1D-VBL"
        for kind in ("csc", "ubcsr", "vbr", "csr_du"):
            with pytest.raises(ConversionError):
                display_name(kind)

    def test_unknown_kind(self, coo):
        for kind in ("ellpack", "ubcsr", "vbr", "csr_du"):
            with pytest.raises(ConversionError):
                build_format(coo, kind)


class TestParameterValidation:
    def test_csr_rejects_block(self, coo):
        with pytest.raises(ConversionError):
            build_format(coo, "csr", (2, 2))

    def test_vbl_rejects_block(self, coo):
        with pytest.raises(ConversionError):
            build_format(coo, "vbl", 4)

    def test_bcsr_requires_pair(self, coo):
        with pytest.raises(ConversionError):
            build_format(coo, "bcsr")
        with pytest.raises(ConversionError):
            build_format(coo, "bcsr", 4)

    def test_bcsd_requires_int(self, coo):
        with pytest.raises(ConversionError):
            build_format(coo, "bcsd")
        with pytest.raises(ConversionError):
            build_format(coo, "bcsd", (2, 2))

    def test_blockshape_accepted(self, coo):
        from repro.types import BlockShape

        fmt = build_format(coo, "bcsr", BlockShape(2, 2), with_values=False)
        assert fmt.block.elems == 4

    @pytest.mark.parametrize("kind", FORMAT_KINDS)
    def test_structure_only_has_no_values(self, coo, kind):
        block = {
            "bcsr": (2, 2), "bcsr_dec": (2, 2), "bcsd": 3, "bcsd_dec": 3,
        }.get(kind)
        fmt = build_format(coo, kind, block, with_values=False)
        assert not fmt.has_values
