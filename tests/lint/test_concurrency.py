"""Concurrency lint: unlocked cross-thread writes (FPT401)."""

from repro.lint import lint_concurrency, scan_concurrency_source
from repro.lint.concurrency import DEFAULT_PACKAGES


def codes(text):
    return [d.code for d in scan_concurrency_source(text)]


UNLOCKED = """\
import threading

class Service:
    def __init__(self):
        self.count = 0
        self._lock = threading.Lock()

    def rpc_hit(self):
        self.count += 1

    def snapshot(self):
        return self.count
"""

LOCKED = UNLOCKED.replace(
    "        self.count += 1",
    "        with self._lock:\n            self.count += 1",
)


class TestUnlockedWrites:
    def test_fpt401_fires_on_an_unlocked_cross_thread_write(self):
        findings = scan_concurrency_source(UNLOCKED)
        assert [d.code for d in findings] == ["FPT401"]
        assert "count" in findings[0].message

    def test_with_lock_variant_is_clean(self):
        assert codes(LOCKED) == []

    def test_init_writes_are_not_cross_thread(self):
        # Only the shared attribute's post-init writes race; the
        # constructor runs before any service thread exists.
        findings = scan_concurrency_source(UNLOCKED)
        assert all(d.line > 7 for d in findings)

    def test_handler_local_attribute_is_clean(self):
        # State that only the service threads' methods ever touch is
        # not shared with the owner side, so it is not a race.
        text = """\
class Service:
    def rpc_hit(self):
        self._scratch = 1
        return self._scratch
"""
        assert codes(text) == []

    def test_thread_target_seeds_the_service_graph(self):
        text = """\
import threading

class Loop:
    def __init__(self):
        self.beats = 0
        threading.Thread(target=self._spin, daemon=True).start()

    def _spin(self):
        self.beats += 1

    def beats_seen(self):
        return self.beats
"""
        assert codes(text) == ["FPT401"]

    def test_module_function_thread_target_seeds_the_graph(self):
        # The node host spawns Thread(target=_sampler_loop, ...): the
        # sampler's obj.method() calls must mark same-named methods of
        # scanned classes service-reachable, exactly like bound-method
        # targets do.
        text = """\
import threading

def _sampler_loop(fleet, stop):
    while not stop.is_set():
        fleet.advance_to(0.0)

class Fleet:
    def __init__(self):
        self.ticks = 0
        threading.Thread(target=_sampler_loop, args=(self, None)).start()

    def advance_to(self, wall):
        self.ticks += 1

    def progress(self):
        return self.ticks
"""
        findings = scan_concurrency_source(text)
        assert [d.code for d in findings] == ["FPT401"]
        assert "ticks" in findings[0].message

    def test_seed_named_module_function_is_an_entry(self):
        # A module-level rpc_* function is a dispatch entry even with no
        # Thread(...) call in the scanned file.
        text = """\
def rpc_poke(daemon):
    daemon.bump()

class Daemon:
    def __init__(self):
        self.hits = 0

    def bump(self):
        self.hits += 1

    def stats(self):
        return self.hits
"""
        assert codes(text) == ["FPT401"]

    def test_reachability_follows_self_calls(self):
        text = """\
class Server:
    def __init__(self):
        self.hits = 0

    def handle(self):
        self._bump()

    def _bump(self):
        self.hits += 1

    def stats(self):
        return self.hits
"""
        findings = scan_concurrency_source(text)
        assert [d.code for d in findings] == ["FPT401"]
        assert findings[0].line == 9

    def test_noqa_with_justification_suppresses(self):
        text = UNLOCKED.replace(
            "self.count += 1",
            "self.count += 1  # fpt: noqa[FPT401] -- single writer",
        )
        assert codes(text) == []


class TestLockHygiene:
    """Lock and blocking-call idioms are not findings by themselves:
    only a shared unlocked write is."""

    def test_acquire_with_try_finally_is_clean(self):
        text = """\
import threading

class S:
    def __init__(self):
        self._lock = threading.Lock()

    def rpc_poke(self):
        self._lock.acquire()
        try:
            self.work()
        finally:
            self._lock.release()
"""
        assert codes(text) == []

    def test_blocking_call_outside_lock_is_clean(self):
        text = """\
class S:
    def rpc_poke(self, sock):
        data = sock.recv(4096)
        return data
"""
        assert codes(text) == []


class TestGoldenPackages:
    def test_deployment_packages_scan_clean(self):
        # The acceptance gate: every cross-thread write in the live
        # deployment code is either locked or carries a justified noqa.
        findings = lint_concurrency()
        assert findings == [], "\n".join(d.render() for d in findings)

    def test_default_packages_cover_the_deployment_stack(self):
        assert set(DEFAULT_PACKAGES) >= {
            "repro.cluster", "repro.rpc", "repro.obsv", "repro.telemetry"
        }

