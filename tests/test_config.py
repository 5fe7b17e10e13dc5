"""ProfileConfig: one normalized, validated home for every setting."""

from dataclasses import fields, replace

import pytest

from repro.analysis.heatmap import DEFAULT_CELL_ROWS
from repro.config import ARCHES, ConfigError, ProfileConfig
from repro.gpu.arch import KEPLER_K40C, PASCAL_P100, kepler_with_l1
from repro.optim.advisor import CUDAAdvisor


class TestNormalization:
    def test_arch_name_becomes_the_architecture(self):
        assert ProfileConfig(arch="pascal").arch is PASCAL_P100
        assert ProfileConfig(arch="pascal") == ProfileConfig(arch=PASCAL_P100)

    def test_custom_architecture_kept(self):
        arch = kepler_with_l1(48)
        assert ProfileConfig(arch=arch).arch is arch

    def test_one_spelling_per_setting(self):
        assert ProfileConfig(modes=["memory"]).modes == ("memory",)
        assert ProfileConfig(backend=None) == ProfileConfig()
        assert ProfileConfig(backend=None).backend == "interpreter"
        assert ProfileConfig(backend="batched") == ProfileConfig()
        spelled = ProfileConfig(heatmap_cell_rows=DEFAULT_CELL_ROWS)
        assert spelled == ProfileConfig()
        assert spelled.heatmap_cell_rows is None
        assert spelled.cell_rows == DEFAULT_CELL_ROWS
        assert ProfileConfig(heatmap_cell_rows=64).cell_rows == 64


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("arch", "volta"),
        ("arch", 3),
        ("modes", ()),
        ("modes", "memory"),
        ("modes", ("memory", "quantum")),
        ("sample_rate", 0),
        ("sample_rate", 1.5),
        ("buffer_capacity", -1),
        ("measure_overhead", 1),
        ("heatmap_cell_rows", 0),
        ("time_buckets", 0),
        ("backend", "warp-drive"),
        ("fused_drain", None),
    ])
    def test_invalid_setting_names_its_field(self, field, value):
        with pytest.raises(ConfigError) as info:
            ProfileConfig(**{field: value})
        assert info.value.field == field

    def test_heatmap_needs_memory_mode(self):
        with pytest.raises(ConfigError, match="'memory'") as info:
            ProfileConfig(modes=("blocks",), heatmap=True)
        assert info.value.field == "heatmap"

    def test_advisor_rejects_heatmap_without_memory(self):
        # the advisor used to return a report without a heat map here
        with pytest.raises(ConfigError):
            CUDAAdvisor(modes=("blocks",), heatmap=True)

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError):
            replace(ProfileConfig(), sample_rate=0)


class TestKeyMaterial:
    def test_result_fields_only(self):
        material = ProfileConfig(heatmap=True).key_material()
        assert set(material) == {
            f.name for f in fields(ProfileConfig) if f.metadata["result"]
        }
        assert "fused_drain" not in material

    def test_heatmap_binning_only_with_a_heatmap(self):
        binning = {"time_buckets", "heatmap_cell_rows"}
        assert binning.isdisjoint(ProfileConfig().key_material())
        assert ProfileConfig(time_buckets=32,
                             heatmap_cell_rows=64).key_material() == (
            ProfileConfig().key_material()
        )

    def test_arch_enters_by_name(self):
        for name, arch in ARCHES.items():
            assert ProfileConfig(arch=arch).key_material()["arch"] == name
        assert ProfileConfig(arch=kepler_with_l1(16)).key_material()[
            "arch"] == "kepler"  # the same architecture as KEPLER_K40C

    def test_custom_architecture_has_no_key(self):
        with pytest.raises(ConfigError) as info:
            ProfileConfig(arch=kepler_with_l1(48)).key_material()
        assert info.value.field == "arch"


class TestAdvisor:
    def test_keywords_and_config_agree(self):
        config = ProfileConfig(arch="pascal", modes=("memory",))
        assert CUDAAdvisor(config).config == config
        assert CUDAAdvisor(arch=PASCAL_P100, modes=["memory"]).config == config
        assert CUDAAdvisor(config, sample_rate=4).config == replace(
            config, sample_rate=4
        )

    def test_arch_and_backend_read_through(self):
        advisor = CUDAAdvisor()
        assert advisor.arch is KEPLER_K40C
        assert advisor.backend == "interpreter"

    def test_optimize_keyword_is_gone(self):
        with pytest.raises(TypeError):
            CUDAAdvisor(optimize=False)
