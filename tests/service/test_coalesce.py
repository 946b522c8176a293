"""Units for single-flight coalescing."""

import asyncio

import pytest

from repro.errors import InvalidInstanceError
from repro.service.coalesce import SingleFlight


def counters(flight):
    return flight.registry.to_payload().get("counters", {})


class TestSingleFlight:
    def test_concurrent_identical_keys_share_one_evaluation(self):
        async def main():
            flight = SingleFlight()
            calls = []
            release = asyncio.Event()

            async def thunk():
                calls.append(1)
                await release.wait()
                return {"answer": 42}

            async def one():
                return await flight.run("k", thunk)

            tasks = [asyncio.ensure_future(one()) for _ in range(5)]
            await asyncio.sleep(0)  # let the leader start and register
            assert flight.inflight == 1
            release.set()
            results = await asyncio.gather(*tasks)
            assert calls == [1]
            values = [value for value, __ in results]
            assert all(value is values[0] for value in values)
            assert sorted(coalesced for __, coalesced in results) == [
                False, True, True, True, True,
            ]
            assert counters(flight)["coalesce.leaders"] == 1
            assert counters(flight)["coalesce.followers"] == 4
            assert flight.inflight == 0

        asyncio.run(main())

    def test_sequential_runs_never_coalesce(self):
        async def main():
            flight = SingleFlight()

            async def thunk():
                return object()

            first, first_coalesced = await flight.run("k", thunk)
            second, second_coalesced = await flight.run("k", thunk)
            assert first_coalesced is False and second_coalesced is False
            assert first is not second
            assert counters(flight)["coalesce.leaders"] == 2
            assert "coalesce.followers" not in counters(flight)

        asyncio.run(main())

    def test_distinct_keys_run_independently(self):
        async def main():
            flight = SingleFlight()
            release = asyncio.Event()

            async def thunk_for(key):
                await release.wait()
                return key

            a = asyncio.ensure_future(flight.run("a", lambda: thunk_for("a")))
            b = asyncio.ensure_future(flight.run("b", lambda: thunk_for("b")))
            await asyncio.sleep(0)
            assert flight.inflight == 2
            release.set()
            assert (await a)[0] == "a"
            assert (await b)[0] == "b"
            assert counters(flight)["coalesce.leaders"] == 2

        asyncio.run(main())

    def test_leader_exception_reaches_every_follower(self):
        async def main():
            flight = SingleFlight()
            release = asyncio.Event()

            async def failing():
                await release.wait()
                raise InvalidInstanceError("shed")

            async def one():
                with pytest.raises(InvalidInstanceError):
                    await flight.run("k", failing)

            tasks = [asyncio.ensure_future(one()) for _ in range(3)]
            await asyncio.sleep(0)
            release.set()
            await asyncio.gather(*tasks)
            # The failed flight is gone; a retry starts fresh.
            assert flight.inflight == 0
            assert counters(flight)["coalesce.followers"] == 2

        asyncio.run(main())

    def test_payload_shape(self):
        async def main():
            flight = SingleFlight()

            async def thunk():
                return 1

            await flight.run("k", thunk)
            assert flight.to_payload() == {
                "inflight": 0,
                "leaders": 1,
                "followers": 0,
            }

        asyncio.run(main())
