"""The message path: what its dispatch tables assume, and what a message
costs in Python frames.

The actors dispatch on ``type(message)`` through a dict (``_HANDLERS``),
which answers exactly as the ``isinstance`` ladders it replaced only while
no message class subclasses another; slotted classes also keep messages
free of per-instance dicts.

**Frames per message** are counted with ``sys.setprofile`` on a small
cluster: the Python calls between ``Actor.send`` and the handler, both
excluded, as is the loop's step itself (the body of ``run_until``).  The
path is ``MessageBus.send`` on the way out, then ``EventLoop._peek``,
``EventLoop._execute``, ``MessageBus._deliver``, ``Actor.deliver`` and the
receiver's ``handle_message``: 6.  Before the message-path diet the same
count read 14 for ``StopWorker`` into a ``FuxiAgent`` (``send`` →
``plan_delays`` → ``_edge`` → ``_one_delay`` → ``_draw`` → ``_mix64`` →
``call_after`` → ``call_at``, then ``_peek`` → ``_execute`` → ``_deliver``
→ ``resolve`` → ``deliver`` → ``handle_message``) and 15 for
``WorkerReady`` into a ``DagJobMaster`` (``handle_app_message`` as well).
CI's ``perf-smoke`` job runs this file as a count gate.
"""

import dataclasses
import inspect
import sys

import pytest

from repro.core import messages as msg
from repro.core.agent import FuxiAgent
from repro.jobs import worker as wmsg
from repro.jobs.jobmaster import DagJobMaster
from repro.workloads.synthetic import mapreduce_job

from tests.conftest import make_cluster

#: frames per message, at most (parent of the diet: 14 and 15)
FRAME_BUDGET = 6


def message_classes():
    return [cls for module in (msg, wmsg)
            for _, cls in inspect.getmembers(module, dataclasses.is_dataclass)
            if cls.__module__ == module.__name__]


@pytest.mark.parametrize("cls", message_classes(),
                         ids=lambda cls: cls.__name__)
def test_every_message_is_slotted_and_subclasses_no_other(cls):
    assert "__slots__" in cls.__dict__
    assert not hasattr(cls(*_blank_fields(cls)), "__dict__")
    others = [other for other in message_classes() if other is not cls]
    assert not [other for other in others if issubclass(cls, other)]


def _blank_fields(cls):
    return [None for field in dataclasses.fields(cls)
            if field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING]


def test_the_message_modules_hold_the_dispatched_types():
    """Guards the test above against checking an empty list."""
    names = {cls.__name__ for cls in message_classes()}
    assert {"Envelope", "StopWorker", "WorkPlan", "WorkerReady",
            "ExecuteInstance", "WorkerStatusReport"} <= names


# ---------------------------------------------------------------------- #
# frames per message
# ---------------------------------------------------------------------- #

def running_cluster():
    """A small cluster with one job whose workers are up."""
    cluster = make_cluster()
    cluster.submit_job(mapreduce_job("frames", mappers=6, reducers=2,
                                     map_duration=30.0))
    for _ in range(40):
        cluster.run_for(0.5)
        if any(name.startswith("worker:") for name in cluster.bus._actors):
            break
    worker = next(actor for name, actor in cluster.bus._actors.items()
                  if name.startswith("worker:"))
    return cluster, worker


def frames_between(cluster, sender, dest: str, message, handler) -> list:
    """``sender.send(dest, message)``, then loop steps until ``handler``
    runs on ``message``: the Python functions called in between, in order
    (``Actor.send``, the loop step and the handler excluded)."""
    loop = cluster.loop
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)

    sys.setprofile(profile)
    try:
        sender.send(dest, message)
    finally:
        sys.setprofile(None)
    assert calls[0] is type(sender).send.__code__
    out = [code.co_name for code in calls[1:]]
    # Step up to the delivery, so the profiled step below finds it at the
    # head of the loop.
    while True:
        head = loop._peek()
        if head[2].args and head[2].args[-1] is message:
            break
        loop.step()
    calls.clear()
    sys.setprofile(profile)
    try:
        loop.step()
    finally:
        sys.setprofile(None)
    assert calls[0] is type(loop).step.__code__
    codes = calls[1:]
    stop = codes.index(handler.__code__)
    return out + [code.co_name for code in codes[:stop]]


def test_worker_ready_reaches_the_job_master_in_six_frames():
    cluster, worker = running_cluster()
    master = cluster.app_masters[worker.plan.app_id]
    assert isinstance(master, DagJobMaster)
    frames = frames_between(
        cluster, worker, worker.master_address,
        wmsg.WorkerReady(worker.worker_id, worker.machine),
        DagJobMaster._on_worker_ready)
    assert frames == ["send", "_peek", "_execute", "_deliver", "deliver",
                      "handle_message"]
    assert len(frames) <= FRAME_BUDGET


def test_stop_worker_reaches_the_agent_in_six_frames():
    cluster, worker = running_cluster()
    master = cluster.app_masters[worker.plan.app_id]
    agent = cluster.agents[worker.machine]
    frames = frames_between(
        cluster, master, agent.name,
        msg.StopWorker(master.app_id, worker.worker_id),
        FuxiAgent._handle_stop_worker)
    assert frames == ["send", "_peek", "_execute", "_deliver", "deliver",
                      "handle_message"]
    assert len(frames) <= FRAME_BUDGET
