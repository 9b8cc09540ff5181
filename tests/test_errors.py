"""The memory guard: physical memory and the process's own cgroup limit."""

import os

import pytest

from wreathlab import errors
from wreathlab.errors import ResourceLimitError

GIB = 2**30
NO_LIMIT = "9223372036854771712\n"  # what cgroup v1 reports when no limit is set


@pytest.fixture()
def fake_files(monkeypatch):
    """Serve the guard's system files from a dict; every other path is unreadable.
    The guard's cached limit is cleared before and after, so each test reads its own."""
    files = {}
    monkeypatch.setattr(errors, "_read_text", files.get)
    errors._memory_limit.cache_clear()
    yield files
    errors._memory_limit.cache_clear()


def physical() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class TestCgroupLimit:
    def test_v1_leaf_limit(self, fake_files):
        fake_files["/proc/self/cgroup"] = "5:devices:/jobs\n4:memory:/jobs/a\n0::/\n"
        fake_files["/sys/fs/cgroup/memory/jobs/a/memory.limit_in_bytes"] = f"{GIB}\n"
        fake_files["/sys/fs/cgroup/memory/jobs/memory.limit_in_bytes"] = NO_LIMIT
        fake_files["/sys/fs/cgroup/memory/memory.limit_in_bytes"] = NO_LIMIT
        assert errors.cgroup_memory_limit() == GIB

    def test_v2_ancestor_limit_binds_under_an_unlimited_leaf(self, fake_files):
        fake_files["/proc/self/cgroup"] = "0::/user.slice/job.scope\n"
        fake_files["/sys/fs/cgroup/user.slice/job.scope/memory.max"] = "max\n"
        fake_files["/sys/fs/cgroup/user.slice/memory.max"] = f"{GIB // 2}\n"
        assert errors.cgroup_memory_limit() == GIB // 2

    def test_minimum_over_both_hierarchies(self, fake_files):
        fake_files["/proc/self/cgroup"] = "4:memory:/a\n0::/b\n"
        fake_files["/sys/fs/cgroup/memory/a/memory.limit_in_bytes"] = f"{3 * GIB}\n"
        fake_files["/sys/fs/cgroup/b/memory.max"] = f"{2 * GIB}\n"
        assert errors.cgroup_memory_limit() == 2 * GIB

    def test_mountinfo_places_cgroup2_elsewhere(self, fake_files):
        fake_files["/proc/self/mountinfo"] = (
            "24 1 0:22 / /proc rw - proc proc rw\n"
            "a line that is not a mount - cgroup2\n"
            "40 32 0:38 / /mnt/cg\\0402 rw,relatime shared:9 - cgroup2 cgroup2 rw\n"
        )
        fake_files["/proc/self/cgroup"] = "0::/job\n"
        fake_files["/mnt/cg 2/job/memory.max"] = f"{GIB}\n"
        fake_files["/sys/fs/cgroup/job/memory.max"] = f"{GIB // 4}\n"  # not where it is mounted
        assert errors.cgroup_memory_limit() == GIB

    def test_mountinfo_root_hides_the_ancestors_above_it(self, fake_files):
        # a v1 memory hierarchy mounted from /docker/c: the process's path is
        # read below the mount point, and /docker itself is not visible there
        fake_files["/proc/self/mountinfo"] = (
            "36 32 0:32 /docker/c /sys/fs/cgroup/memory ro,nosuid - cgroup cgroup rw,memory\n"
        )
        fake_files["/proc/self/cgroup"] = "4:memory:/docker/c/job\n0::/\n"
        fake_files["/sys/fs/cgroup/memory/job/memory.limit_in_bytes"] = NO_LIMIT
        fake_files["/sys/fs/cgroup/memory/memory.limit_in_bytes"] = f"{2 * GIB}\n"
        fake_files["/sys/fs/cgroup/memory.max"] = f"{GIB}\n"  # no cgroup2 mount is listed
        assert errors.cgroup_memory_limit() == 2 * GIB

    @pytest.mark.parametrize("table", [None, "", "0::/\n", "4:cpu:/a\n", "garbage\n"])
    def test_no_readable_limit_is_none(self, fake_files, table):
        if table is not None:
            fake_files["/proc/self/cgroup"] = table
        fake_files["/sys/fs/cgroup/memory.max"] = "max\n"
        assert errors.cgroup_memory_limit() is None


class TestCheckPhysicalMemory:
    def test_binding_cgroup_limit_refuses_and_says_so(self, fake_files):
        fake_files["/proc/self/cgroup"] = "0::/\n"
        fake_files["/sys/fs/cgroup/memory.max"] = f"{GIB}\n"
        errors.check_physical_memory(GIB, "the arrays")
        with pytest.raises(ResourceLimitError) as caught:
            errors.check_physical_memory(GIB + 1, "the arrays")
        assert str(caught.value) == (
            "the arrays need about 1.0 GiB, more than the 1.0 GiB memory limit of this process's cgroup"
        )

    def test_limit_above_physical_memory_leaves_the_message(self, fake_files):
        fake_files["/proc/self/cgroup"] = "0::/\n"
        fake_files["/sys/fs/cgroup/memory.max"] = f"{2 * physical()}\n"
        with pytest.raises(ResourceLimitError, match="of physical memory$"):
            errors.check_physical_memory(physical() + 1, "the arrays")

    def test_without_a_cgroup_physical_memory_binds(self, fake_files):
        errors.check_physical_memory(physical(), "the arrays")
        with pytest.raises(ResourceLimitError, match="of physical memory$"):
            errors.check_physical_memory(physical() + 1, "the arrays")

    def test_second_call_reads_no_file(self, fake_files, monkeypatch):
        fake_files["/proc/self/cgroup"] = "0::/\n"
        fake_files["/sys/fs/cgroup/memory.max"] = f"{GIB}\n"
        reads = []
        monkeypatch.setattr(errors, "_read_text", lambda path: reads.append(path) or fake_files.get(path))
        errors.check_physical_memory(GIB, "the arrays")
        assert "/sys/fs/cgroup/memory.max" in reads
        reads.clear()
        with pytest.raises(ResourceLimitError, match="cgroup$"):
            errors.check_physical_memory(GIB + 1, "the arrays")
        assert reads == []
