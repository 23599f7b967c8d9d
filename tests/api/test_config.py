"""DeploymentConfig: one validation path for every deployment knob."""

import pytest

from repro.api import Budget, ClientPopulation, DeploymentConfig, \
    FleetClientSpec
from repro.server import ServerConfig, validate_server_options


class TestValidation:
    def test_default_is_valid_serial(self):
        config = DeploymentConfig()
        assert config.mode == "serial"
        assert config.resolved_n_shards == 1
        assert config.streaming_queries  # serial reads mid-load too
        assert not DeploymentConfig(seal_interval=None).streaming_queries

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            DeploymentConfig(mode="clustered")

    def test_server_options_same_error_as_server_layer(self):
        """The facade reuses the server's validation — messages match."""
        with pytest.raises(ValueError) as via_config:
            DeploymentConfig(shard_mode="fiber")
        with pytest.raises(ValueError) as via_server:
            validate_server_options(shard_mode="fiber")
        assert str(via_config.value) == str(via_server.value)

    def test_bad_dispatch(self):
        with pytest.raises(ValueError, match="dispatch must be one of"):
            DeploymentConfig(dispatch="lottery")

    def test_bad_partial_loading(self):
        with pytest.raises(ValueError, match="partial_loading"):
            DeploymentConfig(partial_loading="sometimes")

    def test_serial_rejects_shards(self):
        with pytest.raises(ValueError, match="serial mode"):
            DeploymentConfig(mode="serial", n_shards=4)

    def test_durable_needs_seal_interval(self, tmp_path):
        """A mid-load durable cut needs sealed parts: every layer
        rejects durable=True with seal_interval=None."""
        from repro.server import CiaoServer

        for mode in ("serial", "sharded"):
            with pytest.raises(ValueError, match="seal_interval"):
                DeploymentConfig(mode=mode, durable=True,
                                 seal_interval=None)
        with pytest.raises(ValueError, match="seal_interval"):
            ServerConfig(data_dir=tmp_path, durable=True,
                         seal_interval=None)
        with pytest.raises(ValueError, match="seal_interval"):
            CiaoServer(tmp_path, durable=True, seal_interval=None)

    def test_sharded_needs_two_shards(self):
        with pytest.raises(ValueError, match="n_shards >= 2"):
            DeploymentConfig(mode="sharded", n_shards=1)

    def test_sharded_default_shards(self):
        config = DeploymentConfig(mode="sharded")
        assert config.resolved_n_shards >= 2
        assert config.streaming_queries

    def test_fleet_knobs_rejected_outside_fleet_mode(self):
        with pytest.raises(ValueError, match="aggregate_budget"):
            DeploymentConfig(aggregate_budget=Budget(1.0))
        with pytest.raises(ValueError, match="realloc_interval"):
            DeploymentConfig(mode="sharded", realloc_interval=4)
        population = ClientPopulation([
            FleetClientSpec("c0", platform="local", speed_factor=1.0,
                            share=1.0),
        ])
        with pytest.raises(ValueError, match="population"):
            DeploymentConfig(population=population)

    def test_chunk_and_batch_bounds(self):
        with pytest.raises(ValueError, match="chunk_size"):
            DeploymentConfig(chunk_size=0)
        with pytest.raises(ValueError, match="ship_batch"):
            DeploymentConfig(ship_batch=0)

    def test_fleet_needs_clients(self):
        with pytest.raises(ValueError, match="at least one client"):
            DeploymentConfig(mode="fleet", n_clients=0)


class TestServerConfigBridge:
    def test_server_config_mapping(self, tmp_path):
        config = DeploymentConfig(
            mode="sharded", n_shards=3, shard_mode="thread",
            dispatch="round-robin", seal_interval=4,
            table_name="events", partial_loading="on",
        )
        server_config = config.server_config(tmp_path)
        assert isinstance(server_config, ServerConfig)
        assert server_config.n_shards == 3
        assert server_config.shard_mode == "thread"
        assert server_config.dispatch == "round-robin"
        assert server_config.seal_interval == 4
        assert server_config.table_name == "events"
        assert server_config.partial_loading == "on"

    def test_with_mode(self):
        base = DeploymentConfig(chunk_size=123)
        fleet = base.with_mode("fleet", aggregate_budget=Budget(2.0))
        assert fleet.mode == "fleet"
        assert fleet.chunk_size == 123
        assert base.mode == "serial"  # frozen original untouched

    def test_serverconfig_validates_at_construction(self, tmp_path):
        """Satellite: ServerConfig cannot drift from the server's rules."""
        with pytest.raises(ValueError, match="shard_mode"):
            ServerConfig(data_dir=tmp_path, shard_mode="fiber")
        with pytest.raises(ValueError, match="dispatch"):
            ServerConfig(data_dir=tmp_path, dispatch="lottery")
        with pytest.raises(ValueError, match="partial_loading"):
            ServerConfig(data_dir=tmp_path, partial_loading="maybe")
        with pytest.raises(ValueError, match="n_shards"):
            ServerConfig(data_dir=tmp_path, n_shards=0)
