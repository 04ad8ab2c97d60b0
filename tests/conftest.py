import contextlib
import importlib
import os
import shutil

import pytest

TEST_SEED = 7
TEST_CONVS = 40
FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="session")
def ray_session():
    import ray
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture
def force_side():
    """``force_side(module, NAME=value, ...)`` is a context manager that
    sets size constants of the module named ``module`` (dotted path) for
    its body, e.g. ``with force_side("agraph_ray.ops.join",
    _BROADCAST_SIDE_BYTES=0):`` sends ``auto_join`` to its co-group side.
    A name the module lacks raises, so a renamed constant cannot leave a
    test on the default side. Only decisions made on the driver see the
    value: a Ray worker imports its own copy of the module."""
    @contextlib.contextmanager
    def force(module: str, **constants):
        mod = importlib.import_module(module)
        with pytest.MonkeyPatch.context() as mp:
            for name, value in constants.items():
                mp.setattr(mod, name, value)
            yield
    return force


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """Deterministic 40-conv transcript corpus (no skew tail), matching the
    committed golden fixtures (tools/gen_fixtures.py 40 7)."""
    from agraph_ray.synth import generate_transcripts
    d = str(tmp_path_factory.mktemp("corpus"))
    generate_transcripts(d, n_convs=TEST_CONVS, seed=TEST_SEED,
                         num_shards=4, skew=False)
    return d


@pytest.fixture(scope="session")
def kg_out(ray_session, corpus_dir, tmp_path_factory):
    """One shared end-to-end build used by several invariant tests."""
    from agraph_ray.config import KGConfig
    from agraph_ray.pipelines.kg_build import build_kg
    out = str(tmp_path_factory.mktemp("kg_out")) + "/run"
    shutil.rmtree(out, ignore_errors=True)
    res = build_kg(corpus_dir, out, KGConfig())
    return res
