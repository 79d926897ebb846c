"""The renamed APIs keep working for one release, with warnings."""

import pytest

from repro import ExperimentConfig, ServerConfig
from repro.apps import FacePipelineConfig
from repro.apps.video_classification import VideoServerConfig


class TestWithUnderscoreAlias:
    def test_with_overrides_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ServerConfig().with_overrides(max_batch_size=32)


class TestKeywordOnlyConfigs:
    @pytest.mark.parametrize(
        "cls", [ServerConfig, ExperimentConfig, FacePipelineConfig],
        ids=["server", "experiment", "faces"],
    )
    def test_positional_construction_rejected(self, cls):
        with pytest.raises(TypeError):
            cls("tensorrt")

    def test_validate_returns_self(self):
        config = ServerConfig(max_batch_size=16)
        assert config.validate() is config
        assert ExperimentConfig().validate().concurrency == 64

    def test_validation_still_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ServerConfig(preprocess_device="tpu")
        with pytest.raises(ValueError):
            ExperimentConfig(concurrency=0)
        with pytest.raises(ValueError):
            FacePipelineConfig(faces_per_frame=-1)
