"""REP002: the execution-seam rule."""

from __future__ import annotations

LIB = "src/repro/fixture.py"
TEST = "tests/fixture_test.py"


def codes(findings):
    return [f.code for f in findings]


class TestFires:
    def test_batch_runner_construction(self, lint):
        findings = lint("""
            from repro.engine import BatchRunner
            runner = BatchRunner(n_workers=4)
        """)
        assert "REP002" in codes(findings)
        assert any("BatchRunner" in f.message for f in findings)

    def test_calibration_cache_construction(self, lint):
        findings = lint("""
            from repro.engine import CalibrationCache
            cache = CalibrationCache()
        """)
        assert "REP002" in codes(findings)

    def test_pool_construction(self, lint):
        findings = lint("""
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(max_workers=2)
        """)
        assert "REP002" in codes(findings)

    def test_attribute_construction(self, lint):
        findings = lint("""
            import repro.engine as engine
            runner = engine.BatchRunner()
        """)
        assert "REP002" in codes(findings)

    def test_n_workers_parameter(self, lint):
        findings = lint("""
            def sweep(frequencies, n_workers=1):
                return frequencies
        """)
        assert codes(findings) == ["REP002"]
        assert "n_workers" in findings[0].message

    def test_backend_keyword_only_parameter(self, lint):
        findings = lint("""
            def sweep(frequencies, *, backend=None):
                return frequencies
        """)
        assert codes(findings) == ["REP002"]

    def test_chunk_size_parameter(self, lint):
        findings = lint("""
            def lot(devices, chunk_size=None):
                return devices
        """)
        assert codes(findings) == ["REP002"]
        assert "chunk_size" in findings[0].message

    def test_worker_pool_construction_outside_the_service(self, lint):
        findings = lint("""
            from repro.service import WorkerPool
            pool = WorkerPool(2, lambda: None)
        """)
        assert "REP002" in codes(findings)
        assert any("repro.service" in f.message for f in findings)

    def test_stdlib_queue_construction_outside_the_service(self, lint):
        for name in ("Queue", "PriorityQueue", "SimpleQueue"):
            findings = lint(f"""
                import queue
                q = queue.{name}()
            """)
            assert "REP002" in codes(findings), name


class TestSilent:
    def test_seam_packages_may_construct(self, lint):
        src = """
            from .runner import BatchRunner
            def build():
                return BatchRunner(n_workers=2)
        """
        assert lint(src, path="src/repro/api/policy.py") == []
        assert lint(src, path="src/repro/engine/runner.py") == []

    def test_scenarios_may_take_backend_kwargs(self, lint):
        src = """
            def run_scenario(spec, backend=None, n_workers=None, chunk_size=None):
                return spec
        """
        assert lint(src, path="src/repro/scenarios/compiler.py") == []

    def test_tests_may_construct(self, lint):
        src = """
            from repro.engine import BatchRunner
            runner = BatchRunner(n_workers=4)
        """
        assert lint(src, path=TEST) == []

    def test_service_package_may_build_queues_and_pools(self, lint):
        src = """
            import queue
            def build(metrics):
                from .sharding import WorkerPool
                pool = WorkerPool(2, metrics=metrics)
                return pool, queue.Queue()
        """
        assert lint(src, path="src/repro/service/service.py") == []
        assert lint(src, path="src/repro/engine/pool.py") == []

    def test_service_package_may_take_seam_kwargs(self, lint):
        src = """
            def build_pool(metrics, n_workers=1):
                return metrics
        """
        assert lint(src, path="src/repro/service/sharding.py") == []

    def test_unrelated_call_names(self, lint):
        assert lint("""
            def f(pool):
                return pool.map(str, [1])
        """) == []


class TestSuppression:
    def test_shim_parameter_suppressed(self, lint):
        findings = lint(
            "def sweep(\n"
            "    frequencies,\n"
            "    n_workers=None,  # repro: allow[REP002]: compute-backend selector\n"
            "):\n"
            "    return frequencies\n"
        )
        assert findings == []
